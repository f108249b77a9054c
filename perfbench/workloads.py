"""The three workloads: their inputs, operations and correctness checks.

Every workload draws its inputs from a finite pool of keys.  Keys are
sorted by a cost proxy that is known before running anything (the total
dimension of the complex) and split into equal strata; each round of the
closed loop takes one key from every stratum, in seeded order.  Any run of
whole rounds therefore sees nearly the same mix of sizes whatever the seed,
which keeps run-to-run spread low, while the seed still picks which inputs
run and in what order.

A workload provides ``setup(seed)``, ``warmup()``, ``rounds()`` yielding
lists of keys, ``prepare(key)`` building the untimed input, ``run(x)`` the
timed operation, and ``check(key, x, out)`` returning the failures and the
digest of the computed tables.
"""

import json
import os
import random
import resource
import subprocess
import sys

from . import gen, reference

HERE = os.path.dirname(os.path.abspath(__file__))


def key_label(key):
    """The text that names an input in the pinned digest files."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def stratified_rounds(keys, proxy, strata, rng):
    """Endless rounds, each holding one key from every cost stratum."""
    ordered = sorted(keys, key=lambda k: (proxy(k), k))
    size, extra = divmod(len(ordered), strata)
    groups = []
    start = 0
    for s in range(strata):
        end = start + size + (s < extra)
        group = ordered[start:end]
        rng.shuffle(group)
        groups.append(group)
        start = end
    r = 0
    while True:
        picks = [g[r % len(g)] for g in groups]
        rng.shuffle(picks)
        yield picks
        r += 1


def _pages_failures(pages, other, r):
    out = []
    if len(pages) != r or len(other) != r:
        out.append(f"expected {r} pages, got {len(pages)} and {len(other)}")
    for a, b in zip(pages, other):
        if reference.as_lists(a.grid) != reference.as_lists(b.grid):
            out.append(f"page {a.r}: filtration and explicit methods disagree")
    return out


def _abutment_failures(last, betti):
    grid = reference.as_lists(last.grid)
    out = []
    for k, b in enumerate(betti):
        total = sum(grid[p][k - p] for p in range(len(grid))
                    if 0 <= k - p < len(grid[0]))
        if total != b:
            out.append(f"abutment: E_inf degree {k} has {total}, b_{k} = {b}")
    return out


def _compare(name, expected, got):
    return [] if expected == got else [f"{name}: expected {expected}, got {got}"]


class _Workload:
    name = ""
    strata = 1
    trace_rounds = 1
    trace_dir = None  # set while cli_session children record spans

    def setup(self, seed):
        self.pinned = reference.load_pinned(self.name)
        self.rng = random.Random(seed)

    def rounds(self):
        return stratified_rounds(self.keys(), self.proxy, self.strata,
                                 self.rng)

    def pinned_failures(self, key, tables):
        d = reference.digest(tables)
        expected = self.pinned.get(key_label(key), [None])[0]
        if expected is not None and expected != d:
            return d, [f"digest {d} differs from pinned {expected}"]
        return d, []

    def peak_rss_mb(self):
        """Peak resident memory of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class S6Sweep(_Workload):
    """verify_model over the admissible diamonds with parameters <= 3."""

    name = "s6_sweep"
    strata = 16
    trace_rounds = 4
    warmup_key = (4, 0, 0, 1, 0)  # outside the box, so never measured

    def setup(self, seed):
        super().setup(seed)
        from frolicher import s6
        from . import tracing
        self.s6 = s6
        self.diamonds = reference.diamonds(3)
        self.captured = []
        # verify_model returns only its verdict; keep the tables it computed
        # so that they can be diffed against the closed forms here.
        compute = s6.compute_model_tables

        def capture(K):
            tables = compute(K)
            self.captured.append(tables)
            return tables

        self._capture_patches = tracing.patch_everywhere(compute, capture)
        self._compute = compute

    def close(self):
        for mod, attr in self._capture_patches:
            setattr(mod, attr, self._compute)

    def keys(self):
        return self.diamonds

    def proxy(self, d):
        return reference.model_content(d).total_dim()

    def warmup(self):
        self.run(self.prepare(self.warmup_key))

    def prepare(self, d):
        self.captured.clear()
        return self.s6.DiamondParams(*d)

    def run(self, params):
        return self.s6.verify_model(params)

    def check(self, d, params, mismatches):
        fails = [f"verify_model reported: {m}" for m in mismatches]
        if len(self.captured) != 1:
            return None, fails + [
                f"captured {len(self.captured)} table sets, expected 1"]
        got = self.captured.pop()
        ref = reference.model_tables(d)
        pages = [reference.as_lists(t.grid) for t in got.pages]
        if len(pages) < 3:
            fails.append(f"only {len(pages)} pages computed")
        else:
            fails += _compare("E1", ref["E1"], pages[0])
            fails += _compare("E2", ref["E2"], pages[1])
            for r, g in enumerate(pages[2:], start=3):
                fails += _compare(f"E{r}", ref["E3+"], g)
        tables = {
            "pages": pages,
            "bott_chern": reference.as_lists(got.bott_chern.grid),
            "aeppli": reference.as_lists(got.aeppli.grid),
            "betti": list(got.betti.b),
            "genus": int(got.genus),
        }
        for name in ("bott_chern", "aeppli", "betti", "genus"):
            fails += _compare(name, ref[name], tables[name])
        digest, more = self.pinned_failures(d, tables)
        return digest, fails + more


class PageOracle(_Workload):
    """The acceptance-suite family: random complexes plus every short shape.

    One operation runs both page methods up to the stable page and de Rham
    on a scrambled complex.  Keys are pool indices, or ``"shape:<j>"`` for
    the j-th of the 82 shapes of length <= 6 on the 3x3 grid; each round
    adds 20 shapes to the 50 complexes, the 200 : 82 ratio of the acceptance
    suite.
    """

    name = "page_oracle"
    grids = ((2, 2), (3, 3), (3, 2), (4, 4), (4, 3), (2, 4))
    max_shapes, max_mult, n_squares, max_spot_dim = 4, 2, 1, 4
    pool = 8400
    salt = 1 << 32
    strata = 50
    shapes_per_round = 20
    trace_rounds = 12

    def is_rational(self, i):
        return i % 7 == 3

    def setup(self, seed):
        super().setup(seed)
        from frolicher import cohomology, spectral
        self.spectral = spectral
        self.cohomology = cohomology
        self.shapes = gen.all_shapes((3, 3), 6)

    def content(self, i):
        """(content, rng positioned for the change of basis) of pool item i."""
        rng = random.Random(self.salt + i)
        grid = self.grids[i % len(self.grids)]
        return gen.random_content(rng, grid, self.max_shapes, self.max_mult,
                                  self.n_squares, self.max_spot_dim), rng

    def keys(self):
        return range(self.pool)

    def proxy(self, i):
        # Total dimensions are pinned beside the digests, so that set-up
        # need not draw the whole pool to stratify it.
        fields = self.pinned.get(str(i))
        size = int(fields[1]) if fields else self.content(i)[0].total_dim()
        return (self.is_rational(i), size)

    def rounds(self):
        order = list(range(len(self.shapes)))
        self.rng.shuffle(order)
        n = 0
        for picks in super().rounds():
            for _ in range(self.shapes_per_round):
                picks.append(f"shape:{order[n % len(order)]}")
                n += 1
            self.rng.shuffle(picks)
            yield picks

    def warmup(self):
        self.run(self.prepare(self.pool))

    def prepare(self, key):
        if isinstance(key, str):
            content = gen.Content((3, 3), {self.shapes[int(key[6:])]: 1})
            return content, gen.to_complex(content)
        content, rng = self.content(key)
        return content, gen.to_complex(content, rng, self.is_rational(key))

    def run(self, x):
        _content, K = x
        r = min(K.p_max, K.q_max) + 2
        return {"r": r,
                "filtration": self.spectral.pages_filtration(K, r),
                "explicit": self.spectral.pages_explicit(K, r),
                "betti": self.cohomology.de_rham(K)}

    def check(self, key, x, out):
        content, _K = x
        ref = reference.content_tables(content)
        pages = out["filtration"]
        betti = list(out["betti"].b)
        fails = _pages_failures(pages, out["explicit"], out["r"])
        if pages:
            fails += _abutment_failures(pages[-1], betti)
            fails += _compare("E1", ref["E1"], reference.as_lists(pages[0].grid))
        fails += _compare("betti", ref["betti"], betti)
        tables = {"pages": [reference.as_lists(t.grid) for t in pages],
                  "betti": betti}
        digest, more = self.pinned_failures(key, tables)
        return digest, fails + more


class CliSession(_Workload):
    """Cold ``python -m frolicher.cli`` children, four commands per diamond.

    While ``trace_dir`` is set, the children run the benchmark's shim
    instead, which installs the span wrappers before calling the CLI and
    leaves its spans in ``trace_dir``.
    """

    name = "cli_session"
    strata = 8
    trace_rounds = 1
    commands = ("verify", "realize", "pages", "bc")

    def __init__(self, root, env):
        self.root = root
        self.env = env
        self.children = 0
        self.child_rss_kb = 0
        self.spawner = None

    def setup(self, seed):
        super().setup(seed)
        self.diamonds = reference.diamonds(3)
        self.work = os.path.join(HERE, "out", f"cli-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)

    def close(self):
        if self.spawner is not None:
            self.spawner.stdin.close()
            try:
                self.spawner.wait(timeout=150)
            except subprocess.TimeoutExpired:
                self.spawner.kill()
                self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None
        for name in os.listdir(self.work):
            os.remove(os.path.join(self.work, name))
        os.rmdir(self.work)

    def keys(self):
        return self.diamonds

    def proxy(self, d):
        return reference.model_content(d).total_dim()

    def rounds(self):
        for picks in super().rounds():
            yield [(d, cmd) for d in picks for cmd in self.commands]

    def warmup(self):
        self.run(self.prepare(((4, 0, 0, 1, 0), "verify")))

    def _path(self, d):
        return os.path.join(self.work, "model-" + "-".join(map(str, d))
                            + ".json")

    def prepare(self, key):
        d, cmd = key
        params = [f"--{n}={v}" for n, v in
                  zip(("h10", "h02", "h11", "alpha", "beta"), d)]
        path = self._path(d)
        args = {"verify": ["s6", "verify", *params],
                "realize": ["s6", "realize", *params, "-o", path],
                "pages": ["pages", path, "--method", "both"],
                "bc": ["cohomology", path, "--theory", "bc"]}[cmd]
        if self.trace_dir is None:
            return [sys.executable, "-m", "frolicher.cli", *args]
        self.children += 1
        out = os.path.join(self.trace_dir, f"child-{self.children}.json")
        return [sys.executable, os.path.join(HERE, "cli_shim.py"), out, *args]

    def run(self, argv):
        """Run one child to completion, through the spawner."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "spawner.py"), self.work],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=self.env, cwd=self.root)
        self.spawner.stdin.write(json.dumps(argv) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with {self.spawner.wait()}")
        done = json.loads(line)
        self.child_rss_kb = max(self.child_rss_kb, done["maxrss_kb"])
        return subprocess.CompletedProcess(argv, done["code"], done["stdout"],
                                           done["stderr"])

    def peak_rss_mb(self):
        """Peak resident memory of the largest CLI child."""
        return self.child_rss_kb / 1024.0

    def check(self, key, argv, proc):
        d, cmd = key
        ref = reference.model_tables(d)
        fails = []
        if proc.returncode != 0:
            fails.append(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
        out = proc.stdout
        tables = None
        if cmd == "verify":
            label = " ".join(f"{n}={v}" for n, v in zip(
                ("h10", "h02", "h11", "alpha", "beta"), d))
            fails += _compare("stdout", f"verified {label}: all tables match "
                              f"predictions ({ref['summands']} zigzag "
                              "summands)\n", out)
        elif cmd == "realize":
            path = self._path(d)
            fails += _compare("stdout", f"wrote {path}\n", out)
            try:
                with open(path, encoding="utf-8") as fh:
                    dims = json.load(fh)["dims"]
            except (OSError, ValueError, KeyError) as exc:
                return None, fails + [f"unreadable model file: {exc}"]
            tables = {"dims": dims}
            fails += _compare("dims", ref["dims"], dims)
        else:
            grids = parse_grids(out)
            if cmd == "pages":
                first = out.split("\n", 1)[0]
                fails += _compare("first line", "methods agree on pages 1..5",
                                  first)
                names = [f"E_{r}" for r in range(1, 6)]
                expected = [ref["E1"], ref["E2"]] + [ref["E3+"]] * 3
            else:
                names, expected = ["bott_chern"], [ref["bott_chern"]]
            fails += _compare("tables", names, list(grids))
            for name, exp in zip(names, expected):
                fails += _compare(name, exp, grids.get(name))
            tables = grids
        if tables is None:
            return None, fails
        digest, more = self.pinned_failures(f"{cmd}:" + ",".join(map(str, d)),
                                            tables)
        return digest, fails + more


def parse_grids(text):
    """Tables printed by the CLI: a ``name:`` line, then rows q = top .. 0.

    Returns ``{name: grid[p][q]}`` in the order printed.
    """
    grids = {}
    name, rows = None, []
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith("q="):
            name, rows = line[:-1], []
        elif line.startswith("q=") and name is not None:
            rows.append([int(x) for x in line.split("|", 1)[1].split()])
        elif line.lstrip().startswith("+") and name is not None:
            rows.reverse()
            grids[name] = [list(col) for col in zip(*rows)]
            name = None
    return grids


def make(name, root, env):
    if name == "cli_session":
        return CliSession(root, env)
    return {"s6_sweep": S6Sweep, "page_oracle": PageOracle}[name]()


NAMES = ("s6_sweep", "page_oracle", "cli_session")
