"""Regenerate the pinned table digests in ``pinned/``.

Usage, from the root of a source checkout::

    python3 perfbench/pin.py [WORKLOAD ...]

Digests fingerprint dimension tables, which are invariants of the input, so
they are pinned once from a trusted commit and any later engine must
reproduce them.  Every input is also checked against the benchmark's own
references first; a failure aborts without writing anything.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import reference, workloads  # noqa: E402


def engine_digests(wl):
    out = {}
    keys = list(wl.keys())
    if isinstance(wl, workloads.PageOracle):
        keys += [f"shape:{j}" for j in range(len(wl.shapes))]
    for key in keys:
        x = wl.prepare(key)
        digest, fails = wl.check(key, x, wl.run(x))
        if fails:
            raise SystemExit(f"{wl.name} {key}: {fails}")
        row = [digest]
        if isinstance(key, int):
            row.append(str(x[0].total_dim()))
        out[workloads.key_label(key)] = " ".join(row)
    return out


def cli_digests():
    """The tables each CLI command prints, computed in-process."""
    from frolicher import cohomology, s6, spectral
    out = {}
    for d in reference.diamonds(3):
        K = s6.realize_model(s6.DiamondParams(*d))
        label = ",".join(map(str, d))
        out[f"realize:{label}"] = reference.digest(
            {"dims": reference.as_lists(K.dims)})
        out[f"pages:{label}"] = reference.digest(
            {f"E_{t.r}": reference.as_lists(t.grid)
             for t in spectral.pages_filtration(K, 5)})
        out[f"bc:{label}"] = reference.digest(
            {"bott_chern": reference.as_lists(cohomology.bott_chern(K).grid)})
    return out


def main(names):
    for name in names or workloads.NAMES:
        if name == "cli_session":
            digests = cli_digests()
        else:
            wl = workloads.make(name, ROOT, None)
            wl.setup(0)
            wl.pinned = {}
            try:
                digests = engine_digests(wl)
            finally:
                wl.close()
        path = os.path.join(reference.PINNED_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {name}: key, digest of the tables it computes"
                     " and, for pool complexes, total dimension\n")
            for key, digest in digests.items():
                fh.write(f"{key} {digest}\n")
        print(f"{name}: {len(digests)} digests -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
