"""starline benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Workloads (see perfbench/README.md for why each one exists):

* ``sweep``        ``starline sweep`` at acceptance scale into fresh caches,
                   then again against the caches it filled;
* ``solve-large``  seeded random graphs through the per-graph tools.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  Human-readable lines, an environment
stamp and any failed check come before it.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import graphs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "solve-large")
DEFAULT_SEED = 1
MIN_PASSES = 3  # untraced passes per run, so each unit's median has three values
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 9
# A run may take 180 s.  No pass starts that could end past PASS_LIMIT_S
# after launch, judged by the longest pass so far, and a run still going
# at WATCHDOG_S is stopped and fails.
PASS_LIMIT_S = 150
WATCHDOG_S = 170
LAUNCHED = time.perf_counter()
# Times are reported in reference seconds; see Gauge.
REFERENCE_PROBE_S = 0.0018
PROBE_LOOPS = 12000
PROBE_EVERY_S = 0.05


@dataclass(frozen=True)
class Scale:
    # (mode flag, max n, graphs, main5 checked, cube-equiv checked)
    sweeps: tuple[tuple[str, int, int, int, int], ...]
    solve_count: int
    solve_n: tuple[int, int]
    digest: str  # of the per-graph (chi, mad) of solve-large at DEFAULT_SEED


SCALES = {
    "full": Scale(
        sweeps=(("simple", 10, 2571, 953, 27), ("multi", 8, 810, 276, 8)),
        solve_count=2016,
        solve_n=(10, 13),
        digest="1cc2aed92f411cade35ebc8831724e47",
    ),
    # the smoke self-test scale
    "toy": Scale(
        sweeps=(("simple", 6, 49, 31, 3), ("multi", 4, 20, 12, 1)),
        solve_count=10,
        solve_n=(8, 12),
        digest="1f8294cd15e906062019afecc0406085",
    ),
}

END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "cpu_s": "s",
    "graph_p50_ms": "ms",
    "graph_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is read from one traced pass)
PER_LAYER = {
    "multigraph.canonical_form_s": ("s", ("total", "multigraph.canonical_form")),
    "multigraph.canonical_form_calls": ("count", ("calls", "multigraph.canonical_form")),
    "multigraph.build_s": ("s", ("total", "multigraph.build")),
    "multigraph.parse_s": ("s", ("total", "multigraph.parse_edge_list")),
    "atlas.enumerate_self_s": ("s", ("self", "atlas.enumerate")),
    "atlas.kept_ratio": ("ratio", None),
    "atlas.sweep_self_s": ("s", ("self", "atlas.sweep")),
    "atlas.cache_load_s": ("s", ("total", "atlas.load_cache")),
    "atlas.cache_bytes": ("B", ("counts", "cache_bytes")),
    "atlas.cache_hits": ("count", ("counts", "cache_hits")),
    "atlas.cache_misses": ("count", ("counts", "cache_misses")),
    "atlas.cache_warnings": ("count", ("counts", "cache_warnings")),
    "density.mad_s": ("s", ("total", "density.mad")),
    "density.mad_calls": ("count", ("calls", "density.mad")),
    "starcolor.infeasible_s": ("s", ("total", "starcolor.infeasible")),
    "starcolor.infeasible_calls": ("count", ("calls", "starcolor.infeasible")),
    "starcolor.feasible_s": ("s", ("total", "starcolor.feasible")),
    "starcolor.feasible_calls": ("count", ("calls", "starcolor.feasible")),
    "starcolor.verify_s": ("s", ("total", "starcolor.verify")),
    "starcolor.verify_failed": ("count", ("counts", "verify_failed")),
    "structure.lemma_audit_s": ("s", ("total", "structure.lemma_audit")),
    "structure.covers_cube_s": ("s", ("total", "structure.covers_cube")),
    "structure.covers_cube_calls": ("count", ("calls", "structure.covers_cube")),
    "discharge.apply_rules_s": ("s", ("total", "discharge.apply_rules")),
    "discharge.audit_s": ("s", ("total", "discharge.audit")),
    "cli.self_s": ("s", ("self", "cli.main")),
    "trace.overhead_frac": ("frac", None),
}


def expected_summary(mode: str, max_n: int, total: int, main5: int, cube: int) -> str:
    name = "simple" if mode == "simple" else "multigraph"
    return (
        f"sweep mode={name} max-n={max_n}\n"
        f"graphs enumerated: {total}\n"
        f"check thm13a: {total} checked, 0 counterexamples\n"
        f"check conj6: {total} checked, 0 counterexamples\n"
        f"check main5: {main5} checked, 0 counterexamples\n"
        f"check cube-equiv: {cube} checked, 0 counterexamples\n"
        f"RESULT: PASS ({total} graphs)\n"
    )


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------

@dataclass
class Pass:
    """Wall and CPU seconds, and graphs, of each unit a pass times on its
    own: one graph on solve-large, one sweep command on sweep."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    # reference seconds per second measured during this pass
    speed: float = 1.0

    def add(self, wall: float, cpu: float, graphs: int) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.sizes.append(graphs)

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Watchdog(BaseException):
    """Raised by the alarm at WATCHDOG_S; not an Exception, so the
    per-graph and per-command handlers let it through."""


class Ledger:
    """Attempted and failed operations; an operation is one graph."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, graphs: int, problem: str | None) -> None:
        self.attempted += graphs
        if problem is not None:
            self.failed += graphs
            print(f"check failed: {problem}", file=sys.stderr)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git, which
    would search the parent directories of a checkout that is no repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gauge:
    """Gauges the machine's speed while the benchmark measures.

    Other tenants of a shared machine slow pure-Python work down, by up to
    1.8 times for minutes at a time.  Every PROBE_EVERY_S of process CPU
    time, SIGPROF runs a fixed probe that shares no code with starline.  The
    probe's mean time over a stretch of work, against REFERENCE_PROBE_S,
    gives the stretch's speed: reference seconds per measured second.
    ``clock`` leaves the probes' own time out of every measurement.  The
    probes' wall time stands for their CPU time too: the process CPU clock
    advances in scheduler ticks, and read inside the handler it barely
    moves.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.busy = False

    def probe(self, *_signal) -> None:
        if self.busy:
            return
        self.busy = True
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(PROBE_LOOPS):
            table[i % 997] = table.get(i % 997, 0) + i
        sorted(table.values())
        wall = time.perf_counter() - start
        self.samples.append(wall)
        self.spent += wall
        self.busy = False

    def wall(self) -> float:
        """Wall seconds so far, less the time spent in probes."""
        return time.perf_counter() - self.spent

    def clock(self) -> tuple[float, float]:
        """Wall and CPU seconds so far, less the time spent in probes."""
        return time.perf_counter() - self.spent, time.process_time() - self.spent

    def speed_since(self, first: int) -> float:
        """The speed over the samples from index ``first`` on, after one
        more probe, so that a stretch too short for the timer has one."""
        self.probe()
        taken = self.samples[first:]
        return REFERENCE_PROBE_S * len(taken) / sum(taken)

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)


def starline_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "starline"}


def import_seconds(clock) -> float:
    """Time to import ``starline.cli`` and every module it pulls in from
    scratch, as each invocation of the ``starline`` command pays it.  The
    modules the run already holds are put back afterwards."""
    held = starline_modules()
    for name in held:
        del sys.modules[name]
    try:
        start = clock()
        importlib.import_module("starline.cli")
        return clock() - start
    finally:
        for name in starline_modules():
            del sys.modules[name]
        sys.modules.update(held)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

class Sweep:
    """One pass runs the sweep commands twice: cold, into fresh, absent
    cache files, then warm, against the caches the cold commands filled."""

    def __init__(self, sl, scale: Scale, ledger: Ledger, gauge: Gauge, work: Path, inject: str | None) -> None:
        self.sl = sl
        self.scale = scale
        self.ledger = ledger
        self.clock = gauge.clock
        self.caches = {mode: work / "caches" / f"{mode}.cache" for mode, *_ in scale.sweeps}
        self.inject = inject

    def setup(self):
        start, _ = self.clock()
        self.caches["simple"].parent.mkdir(parents=True, exist_ok=True)
        return self.clock()[0] - start, None

    def one_pass(self, _state, tracer=None) -> Pass:
        for path in self.caches.values():
            path.unlink(missing_ok=True)
        record = Pass()
        cold = self.run(record, tracer)
        self.check(cold, "cold")
        if self.inject == "bad-cache-line":
            with open(self.caches["simple"], "a", encoding="ascii") as fh:
                fh.write("planted bad cache line\n")
        digests = {mode: file_digest(path) for mode, path in self.caches.items()}
        warm = self.run(record, tracer)
        self.check(warm, "warm", reference=cold, unchanged=digests)
        return record

    def run(self, record: Pass, tracer=None) -> list[tuple[int | str, str, str]]:
        """The sweep commands, each timed on its own into ``record``;
        returns each one's exit code (or crash), stdout and stderr."""
        main = self.sl.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        outputs = []
        for mode, max_n, total, *_ in self.scale.sweeps:
            out, err = io.StringIO(), io.StringIO()
            wall0, cpu0 = self.clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(["sweep", "--max-n", str(max_n), "--mode", mode, "--cache", str(self.caches[mode])])
                except Exception as exc:  # a crash fails the command's graphs, not the run
                    code = f"{type(exc).__name__}: {exc}"
            wall1, cpu1 = self.clock()
            record.add(wall1 - wall0, cpu1 - cpu0, total)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, outputs, label: str, reference=None, unchanged=None) -> None:
        """Exit code 0, the frozen summary on stdout, nothing on stderr; the
        cold commands leave one clean cache entry per graph, the warm ones
        repeat the cold stdout and leave their caches untouched."""
        for i, ((mode, max_n, total, main5, cube), (code, out, err)) in enumerate(
            zip(self.scale.sweeps, outputs)
        ):
            where = f"{label} {mode} n<={max_n}"
            problem = None
            if code != 0:
                problem = f"{where}: exit code {code!r}"
            elif out != expected_summary(mode, max_n, total, main5, cube):
                problem = f"{where}: summary differs from the frozen one: {out!r}"
            elif err:
                problem = f"{where}: unexpected stderr {err!r}"
            elif reference is not None and out != reference[i][1]:
                problem = f"{where}: warm stdout differs from cold stdout"
            elif unchanged is not None and file_digest(self.caches[mode]) != unchanged[mode]:
                problem = f"{where}: warm sweep changed its cache"
            elif unchanged is None:
                entries, warnings = self.sl.atlas.load_cache(str(self.caches[mode]))
                if len(entries) != total or warnings:
                    problem = f"{where}: cache holds {len(entries)} entries and {len(warnings)} warnings, expected {total} and 0"
            self.ledger.record(total, problem)


# ----------------------------------------------------------------------
# solve-large
# ----------------------------------------------------------------------

def mutated(sl, g, cert):
    """The certificate with one edge recoloured to match a neighbour."""
    u, v = g.edges[0]
    end = u if g.degree(u) > 1 else v
    other = next(e for _, e in g.adjacency[end] if e != 0)
    colours = dict(cert.assignment)
    colours[0] = colours[other]
    return sl.starcolor.EdgeColoring(cert.k, colours)


def verdict(g, chi, cert, verified, density, witness, report) -> str | None:
    """What is wrong with one graph's results, or None."""
    if not verified or not cert.is_total(g.m) or max(cert.assignment.values()) > chi:
        return f"certificate for chi={chi} rejected"
    inside = set(witness)
    if not inside or Fraction(2 * sum(u in inside and v in inside for u, v in g.edges), len(inside)) != density:
        return f"mad witness does not attain {density}"
    if not report.conserved:
        return "discharging audit not conserved"
    return None


class Solve:
    def __init__(self, sl, scale: Scale, ledger: Ledger, gauge: Gauge, seed: int, inject: str | None) -> None:
        self.sl = sl
        self.scale = scale
        self.ledger = ledger
        self.clock = gauge.clock
        self.seed = seed
        self.inject = inject
        self.first_values: list[tuple[int, Fraction]] | None = None

    def setup(self):
        start, _ = self.clock()
        lo, hi = self.scale.solve_n
        texts = graphs.edge_list_texts(self.seed, self.scale.solve_count, lo, hi)
        return self.clock()[0] - start, texts

    def one_pass(self, texts, tracer=None) -> Pass:
        sl = self.sl
        record = Pass()
        values, problems = [], []
        for index, text in enumerate(texts):
            wall0, cpu0 = self.clock()
            try:
                g = sl.multigraph.parse_edge_list(text)
                density, witness = sl.density.mad(g)
                chi, cert = sl.starcolor.star_chromatic_index(g)
                if self.inject == "bad-certificate":
                    cert = mutated(sl, g, cert)
                verified = sl.starcolor.is_star_coloring(g, cert)
                sl.structure.lemma_audit(g)
                h, _ = sl.structure.strip_ones(g)
                ledger = sl.discharge.apply_rules(h)
                report = sl.discharge.audit(h, ledger)
                problem = None
            except Exception as exc:  # a crash fails this graph, not the run
                chi = density = None
                problem = f"{type(exc).__name__}: {exc}"
            wall1, cpu1 = self.clock()
            record.add(wall1 - wall0, cpu1 - cpu0, 1)
            values.append((chi, density))
            if problem is None:
                problem = verdict(g, chi, cert, verified, density, witness, report)
            problems.append(problem and f"graph {index}: {problem}")
        digest = value_digest(values)
        if self.first_values is None:
            self.first_values = values
        if self.seed == DEFAULT_SEED and digest != self.scale.digest:
            self.ledger.record(len(texts), f"(chi, mad) digest {digest} differs from the frozen one")
        elif values != self.first_values:
            self.ledger.record(len(texts), "(chi, mad) differ from the first pass")
        else:
            for problem in problems:
                self.ledger.record(1, problem)
        return record


def value_digest(values) -> str:
    body = "".join(f"{chi} {d}\n" for chi, d in values)
    return hashlib.sha256(body.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def trace_patches(sl, tracer: spans.Tracer):
    """Recording stand-ins at every layer boundary the workloads cross."""

    def verify(t, _args, ok):
        if not ok:
            t.count("verify_failed")

    def colourable(_t, _args, cert):
        return "starcolor.infeasible" if cert is None else "starcolor.feasible"

    def load(t, args, result):
        if os.path.exists(args[0]):
            t.count("cache_bytes", os.path.getsize(args[0]))

    def swept(t, _args, summary):
        t.count("cache_hits", summary.cache_hits)
        t.count("cache_misses", summary.cache_misses)
        t.count("cache_warnings", len(summary.warnings))

    def level(t, items):
        t.count("kept", len(items))

    atlas = sl.atlas
    named = [
        (atlas, "canonical_form", "multigraph.canonical_form", None),
        (atlas, "build", "multigraph.build", None),
        (atlas, "mad", "density.mad", None),
        (atlas, "star_chromatic_index", "starcolor.star_chromatic_index", None),
        (atlas, "is_star_coloring", "starcolor.verify", verify),
        (atlas, "covers_cube", "structure.covers_cube", None),
        (atlas, "load_cache", "atlas.load_cache", load),
        (atlas, "sweep", "atlas.sweep", swept),
        (sl.starcolor, "is_star_k_colorable", "starcolor.is_star_k_colorable", colourable),
        (sl.multigraph, "parse_edge_list", "multigraph.parse_edge_list", None),
        (sl.density, "mad", "density.mad", None),
        (sl.starcolor, "star_chromatic_index", "starcolor.star_chromatic_index", None),
        (sl.starcolor, "is_star_coloring", "starcolor.verify", verify),
        (sl.structure, "lemma_audit", "structure.lemma_audit", None),
        (sl.discharge, "apply_rules", "discharge.apply_rules", None),
        (sl.discharge, "audit", "discharge.audit", None),
    ]
    patches = [
        (module, attr, tracer.wrap(name, getattr(module, attr), classify))
        for module, attr, name, classify in named
    ]
    patches.append((atlas, "_levels", tracer.wrap_generator("atlas.enumerate", atlas._levels, level)))
    return patches


def layer_metrics(tracer: spans.Tracer, pass_id: int) -> dict[str, float]:
    tables = dict(zip(("total", "self", "calls", "counts"), tracer.pass_summary(pass_id)))
    values = {}
    for name, (_, source) in PER_LAYER.items():
        if source is not None:
            table, key = source
            values[name] = tables[table].get(key, 0)
    calls = values["multigraph.canonical_form_calls"]
    values["atlas.kept_ratio"] = tables["counts"].get("kept", 0) / calls if calls else 0.0
    return values


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def load_starline():
    sys.path.insert(0, str(SRC))
    from starline import atlas, cli, density, discharge, multigraph, starcolor, structure

    return argparse.Namespace(
        atlas=atlas, cli=cli, density=density, discharge=discharge,
        multigraph=multigraph, starcolor=starcolor, structure=structure,
    )


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setups: list[float], setup_speed: float, scaled: bool = True) -> dict[str, float]:
    """Each unit a pass times (a graph, or a sweep command) stands for its
    median time over the passes, in reference seconds unless ``scaled`` is
    false.  A sweep command times its graphs together, so each of its
    graphs gets the command's time per graph as its latency."""

    def medians(columns: str) -> list[float]:
        rows = ([t * (p.speed if scaled else 1.0) for t in getattr(p, columns)] for p in passes)
        return [statistics.median(column) for column in zip(*rows)]

    walls, cpus = medians("walls"), medians("cpus")
    sizes = passes[0].sizes
    latencies = [wall / size for wall, size in zip(walls, sizes) for _ in range(size)]
    return {
        "graphs_per_s": sum(sizes) / sum(walls),
        "cpu_s": sum(cpus),
        "graph_p50_ms": 1000 * statistics.median(latencies),
        "graph_p90_ms": 1000 * quantile(latencies, 90),
        "setup_s": statistics.median(setups) * (setup_speed if scaled else 1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full", help=argparse.SUPPRESS)
    parser.add_argument(
        "--inject", choices=("bad-cache-line", "bad-certificate"), default=None, help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starline" / "__init__.py").is_file():
        print(f"error: no starline sources under {SRC}", file=sys.stderr)
        return 2
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    work = OUT / f"run-{os.getpid()}"

    def expire(_signum, _frame):
        raise Watchdog

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        return measure(args, stamp, work)
    except Watchdog:
        print(f"error: run still going after {WATCHDOG_S} s, stopped", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, stamp: dict, work: Path) -> int:
    scale = SCALES[args.scale]
    sl = load_starline()
    ledger = Ledger()
    gauge = Gauge()
    if args.workload == "solve-large":
        workload = Solve(sl, scale, ledger, gauge, args.seed, args.inject)
    else:
        workload = Sweep(sl, scale, ledger, gauge, work, args.inject)
    with gauge.running():
        return measure_runs(args, stamp, sl, ledger, gauge, workload)


def measure_runs(args, stamp: dict, sl, ledger: Ledger, gauge: Gauge, workload) -> int:
    first = len(gauge.samples)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        seconds, state = workload.setup()
        setups.append(import_seconds(gauge.wall) + seconds)
    setup_speed = gauge.speed_since(first)

    tracer = spans.Tracer(gauge.wall) if args.trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if tracer is None:
            enough, some = len(untraced) >= MIN_PASSES, bool(untraced)
        else:
            enough, some = len(traced) >= MIN_TRACED_PASSES, bool(traced)
        if now - start >= args.seconds and enough:
            break
        if some and now - LAUNCHED + longest > PASS_LIMIT_S:
            print(f"note: stopped after {len(untraced) + len(traced)} passes to end within {PASS_LIMIT_S} s", file=sys.stderr)
            break
        first = len(gauge.samples)
        if tracer is not None and len(traced) < len(untraced):
            tracer.pass_id = len(traced)
            with spans.patched(trace_patches(sl, tracer)):
                record = workload.one_pass(state, tracer)
            traced.append(record)
        else:
            record = workload.one_pass(state)
            untraced.append(record)
        record.speed = gauge.speed_since(first)
        longest = max(longest, time.perf_counter() - now)

    if tracer is None:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(untraced, setups, setup_speed).items()}
        measured = end_to_end(untraced, setups, setup_speed, scaled=False)
    else:
        metrics = traced_metrics(tracer, traced, untraced)
        if metrics is None:
            ledger.record(1, "per-layer counts differ between traced passes")

    stamp["loadavg_end"] = os.getloadavg()
    stamp["passes"] = len(untraced) + len(traced)
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"), stamp)
    print("env " + json.dumps(stamp, sort_keys=True))
    for label, group in (("pass", untraced), ("traced pass", traced)):
        for p in group:
            print(f"{args.workload} {label}: {sum(p.sizes)} graphs in {p.wall:.4f} s wall, {sum(p.cpus):.4f} s CPU, speed {p.speed:.4f}")
    if tracer is None:
        for name, value in measured.items():
            if name != "peak_rss_mb":
                print(f"{args.workload} {name} in measured seconds = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in (metrics or {}).items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{args.workload} failed_frac = {failed_frac:.6g} frac ({ledger.failed} of {ledger.attempted} graphs)")
    correct = ledger.failed == 0 and metrics is not None
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in (metrics or {}).items()},
    }))
    return 0 if correct else 1


def traced_metrics(tracer: spans.Tracer, traced: list[Pass], untraced: list[Pass]):
    """Median per-layer times over the traced passes, in reference seconds;
    counts must repeat exactly, so a count that differs between passes
    returns None."""
    per_pass = [layer_metrics(tracer, i) for i in range(len(traced))]
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_frac":
            plain = statistics.median(p.wall * p.speed for p in untraced)
            value = (statistics.median(p.wall * p.speed for p in traced) - plain) / plain
        else:
            column = [values[name] for values in per_pass]
            if unit == "s":
                column = [value * p.speed for value, p in zip(column, traced)]
                value = statistics.median(column)
            elif len(set(column)) == 1:
                value = column[0]
            else:
                return None
        metrics[name] = (value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
