"""ordalg benchmark: seeded workloads, verified verdicts, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload with one closed-loop client: each op starts
when the previous one has returned.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same ops untraced and then traced, and prints
the per-layer metrics.  ``--workload all`` runs every workload both ways in
child processes and prints every metric.  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Gauge, kernel_s, scale
from tracer import MODULES, Tracer
from workloads import BUILDERS, Api, TableFiles, warmup_ops, wrong_answers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("refine", "oracle", "finite", "interval")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def import_package():
    """Import ordalg from this checkout's src/, never from anywhere else."""
    if not (SRC / "ordalg" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'ordalg'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ordalg

    if Path(ordalg.__file__).resolve().parent != (SRC / "ordalg").resolve():
        raise SystemExit(f"error: imported ordalg from {ordalg.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# set-up


class Setup:
    """Inputs for one workload and seed, ready to run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.cwd = os.getcwd()
        os.chdir(self.workdir)  # table files are passed by bare name
        self.api = Api()
        files = TableFiles(".")
        self.rounds = BUILDERS[workload](self.api, seed, files)
        digest = hashlib.sha256()
        for ops in self.rounds:
            for op in ops:
                digest.update(op.text.encode())
                digest.update(b"\n")
        self.corpus_digest = digest.hexdigest()[:16]
        self.warmup = warmup_ops(self.api, workload, files)
        for op in self.warmup:
            judge(op, *timed_call(op))
        # the corpus lives for the whole run; keep collections from re-scanning it
        gc.collect()
        gc.freeze()

    def close(self):
        os.chdir(self.cwd)
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure_setup_s(workload, seed):
    """Median time from launching a fresh interpreter to its first timed op, at the
    reference speed; the child samples the speed kernel itself and reports how
    long that took, so the samples are left out of the set-up time."""
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        ready, spent, before, after = map(float, proc.stdout.strip().splitlines()[-1].split())
        raw.append(ready - start - spent)
        samples.append(scale(raw[-1], before, after))
    return statistics.median(samples), statistics.median(raw)


def setup_only(args):
    """Set up once in this fresh interpreter; print when it was ready and the speed samples."""
    start = time.perf_counter()
    kernel_s()  # the first sample in a process runs cold
    before = kernel_s()
    spent = time.perf_counter() - start
    import_package()
    setup = Setup(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    after = kernel_s()
    setup.close()
    print(f"{ready:.9f} {spent:.9f} {before:.9f} {after:.9f}")
    return 0


# ---------------------------------------------------------------------------
# running ops


def timed_call(op):
    """(latency seconds, result, exception) of the package call alone."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


def judge(op, latency, result, exc):
    """(ok, verdict text) for one op; raises and check errors count as failures."""
    if exc is not None:
        return False, f"raised {type(exc).__name__}: {exc}"
    try:
        return op.check(result)
    except Exception as err:  # a malformed answer is a wrong answer
        return False, f"check raised {type(err).__name__}: {err}"


class Tally:
    def __init__(self):
        # wall seconds, in the order the ops ran; an array, so that how many ops
        # fit into a run barely moves peak_rss_mb
        self.latencies = array.array("d")
        self.round_sizes = []
        self.failed = 0
        self.failures = []
        self.verdicts = hashlib.sha256()

    def add(self, op, latency, ok, verdict, hash_verdict):
        self.latencies.append(latency)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind}: {op.text[:120]} -> {verdict[:200]}")
        if hash_verdict:
            self.verdicts.update(verdict.encode())
            self.verdicts.update(b"\n")

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def verdict_digest(self):
        return self.verdicts.hexdigest()[:16]


def run_rounds(rounds, tally, hash_verdicts, gauge, tracer=None):
    for ops in rounds:
        for op in ops:
            if tracer is not None:
                tracer.kind, tracer.op_index = op.kind, tally.attempted
            latency, result, exc = timed_call(op)
            if tracer is not None:
                tracer.op_time[op.kind] = tracer.op_time.get(op.kind, 0.0) + latency
            ok, verdict = judge(op, latency, result, exc)
            tally.add(op, latency, ok, verdict, hash_verdicts)
            gauge.after_op(tally.attempted, latency)
        tally.round_sizes.append(len(ops))


def measure(setup, seconds):
    """One full pass over the corpus, then further rounds while time remains."""
    tally, gauge = Tally(), Gauge()
    start = time.perf_counter()
    run_rounds(setup.rounds, tally, True, gauge)
    first_pass = tally.verdict_digest
    round_s = (time.perf_counter() - start) / len(setup.rounds)
    index = 0
    while time.perf_counter() - start + round_s <= seconds:
        run_rounds([setup.rounds[index % len(setup.rounds)]], tally, False, gauge)
        index += 1
    return tally, gauge, first_pass, time.perf_counter() - start


def tail_percentile(n):
    """Highest of p99/p90 with at least 10 of n ops beyond it; p50 otherwise.

    n is the corpus size, not the op count of the run, so that how many
    rounds fit into a run never changes which percentile is reported."""
    for p in (99, 90):
        if n - math.ceil(n * p / 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(len(sorted_values) * p / 100) - 1)]


def round_rates(tally, latencies):
    """Ops per second of op time, one per round."""
    rates, start = [], 0
    for size in tally.round_sizes:
        rates.append(size / sum(latencies[start:start + size]))
        start += size
    return rates


def timing_metrics(tally, latencies, p):
    lat = sorted(latencies)
    return {
        # the median round shrugs off a burst of machine noise that a mean would absorb
        "ops_per_s": (statistics.median(round_rates(tally, latencies)), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(lat, p) * 1e3, "ms"),
    }


def end_to_end(tally, gauge, setup_s, corpus_ops):
    """Timings at the reference speed (see speed.py), and the same from raw wall time."""
    # read before the scaled and sorted copies of the latencies are made
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p = tail_percentile(corpus_ops)
    timings = timing_metrics(tally, gauge.scaled(tally.latencies), p)
    metrics = {"setup_s": (setup_s[0], "s"), **timings, "peak_rss_mb": (peak_rss_mb, "MB")}
    wall = timing_metrics(tally, tally.latencies, p)
    wall["setup_s"] = (setup_s[1], "s")
    lat = tally.latencies
    notes = {"tail_percentile": f"p{p}", "ops_beyond_tail": len(lat) - math.ceil(len(lat) * p / 100),
             "wall": wall}
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run

GROUP_FUNCTIONS = ("add", "neg", "leq", "sub_left", "positive_cone_member", "check_element",
                   "lower_bound")
RIESZ_FUNCTIONS = ("rdp_decompose", "rdp_table_verify", "rip_interpolate", "rdp_oracle_search")
PEA_FUNCTIONS = ("check_pea_axioms", "FinitePea.init", "ideals_enumerate", "cyclic_elements")
DECOMP_FUNCTIONS = ("classify_perfect", "check_ordered", "check_type_i",
                    "decomposition_from_state", "find_cyclic_system")
REPRESENT_FUNCTIONS = ("phi_represent", "verify_isomorphism", "functor_map", "make_shuffled")
PARSING_FUNCTIONS = ("parse_pea_file", "parse_descriptor", "parse_element")
SOLVE_KINDS = "finite:states:solve:"
CUBE_KINDS = "finite:states:cube:"


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod in MODULES:
        units.update({f"{mod}.calls": "count", f"{mod}.self_s": "s", f"{mod}.errors": "count",
                      f"{mod}.self_share": "ratio"})
    for fn in GROUP_FUNCTIONS:
        units.update({f"groups.{fn}.calls": "count", f"groups.{fn}.self_s": "s"})
    for fn in RIESZ_FUNCTIONS:
        units.update({f"riesz.{fn}.calls": "count", f"riesz.{fn}.self_s": "s"})
    units["riesz.oracle.group_calls_per_search"] = "count"
    for fn in PEA_FUNCTIONS:
        units.update({f"pea.{fn}.calls": "count", f"pea.{fn}.self_s": "s"})
    units.update({"pea.interval.calls": "count", "pea.interval.self_s": "s"})
    units.update({"states.solve_affine.calls": "count", "states.solve_affine.self_s": "s",
                  "states.solve_affine.rows": "count", "states.solve_affine.cols": "count",
                  "states.extreme_rays.calls": "count", "states.extreme_rays.self_s": "s",
                  "states.extreme_rays.dim": "count", "states.extreme_rays.rays_out": "count",
                  "states.states_finite.calls": "count", "states.states_finite.self_s": "s",
                  "states.solve_affine.share_of_solve_states": "ratio",
                  "states.extreme_rays.share_of_cube_states": "ratio"})
    for fn in DECOMP_FUNCTIONS:
        units[f"decomp.{fn}.self_s"] = "s"
    for fn in REPRESENT_FUNCTIONS:
        units[f"represent.{fn}.self_s"] = "s"
    for fn in PARSING_FUNCTIONS:
        units[f"parsing.{fn}.self_s"] = "s"
    units["cli.main.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(tracer, untraced_s, traced_s):
    total_s = sum(tracer.op_time.values())

    def fn(name):
        return tracer.total(lambda n: n == name)

    values = dict.fromkeys(layer_metric_units(), 0)
    for mod in MODULES:
        calls, _, self_s, errors = tracer.total(lambda n, m=mod: n.split(".", 1)[0] == m)
        values.update({f"{mod}.calls": calls, f"{mod}.self_s": self_s, f"{mod}.errors": errors,
                       f"{mod}.self_share": self_s / total_s})
    for layer, names in (("groups", GROUP_FUNCTIONS), ("riesz", RIESZ_FUNCTIONS),
                         ("pea", PEA_FUNCTIONS)):
        for name in names:
            calls, _, self_s, _ = fn(f"{layer}.{name}")
            values[f"{layer}.{name}.calls"], values[f"{layer}.{name}.self_s"] = calls, self_s
    searches = fn("riesz.rdp_oracle_search")[0]
    group_calls = tracer.total(lambda n: n.startswith("groups."),
                               kinds=lambda k: k.startswith("oracle:"))[0]
    values["riesz.oracle.group_calls_per_search"] = group_calls / searches if searches else 0
    interval = tracer.total(lambda n: n.startswith("pea.IntervalPea."))
    values["pea.interval.calls"], values["pea.interval.self_s"] = interval[0], interval[2]
    for name, sizes in (("solve_affine", ("rows", "cols")), ("extreme_rays", ("dim", "rays_out"))):
        calls, _, self_s, _ = fn(f"states.{name}")
        values[f"states.{name}.calls"], values[f"states.{name}.self_s"] = calls, self_s
        got = tracer.sizes.get(f"states.{name}", {})
        for size in sizes:
            values[f"states.{name}.{size}"] = got.get(size, 0) / calls if calls else 0
    calls, _, self_s, _ = fn("states.states_finite")
    values["states.states_finite.calls"], values["states.states_finite.self_s"] = calls, self_s
    for metric, function, prefix in (
        ("states.solve_affine.share_of_solve_states", "states.solve_affine", SOLVE_KINDS),
        ("states.extreme_rays.share_of_cube_states", "states.extreme_rays", CUBE_KINDS),
    ):
        op_s = sum(t for k, t in tracer.op_time.items() if k.startswith(prefix))
        self_s = tracer.total(lambda n, f=function: n == f, kinds=lambda k, p=prefix: k.startswith(p))[2]
        values[metric] = self_s / op_s if op_s else 0
    for layer, names in (("decomp", DECOMP_FUNCTIONS), ("represent", REPRESENT_FUNCTIONS),
                         ("parsing", PARSING_FUNCTIONS), ("cli", ("main",))):
        for name in names:
            values[f"{layer}.{name}.self_s"] = fn(f"{layer}.{name}")[2]
    values["trace.overhead_ratio"] = untraced_s / traced_s
    return values


def kind_breakdown(tracer):
    """Per op kind: op seconds and the three functions with the most self time."""
    lines = []
    for kind in sorted(tracer.op_time):
        top = sorted(((st[2], name) for (k, name), st in tracer.stats.items() if k == kind),
                     reverse=True)[:3]
        total = tracer.op_time[kind]
        shares = ", ".join(f"{name} {s / total:.0%}" for s, name in top)
        lines.append(f"#   {kind:<38} {total:9.4f} s  self: {shares}")
    return lines


def traced_run(setup, seconds):
    """Untraced rounds for a quarter of the budget, then the same rounds traced."""
    plain, plain_gauge = Tally(), Gauge()
    start = time.perf_counter()
    used = []
    for ops in setup.rounds:
        run_rounds([ops], plain, True, plain_gauge)
        used.append(ops)
        if time.perf_counter() - start >= seconds / 4:
            break
    tracer = Tracer()
    traced, traced_gauge = Tally(), Gauge()
    tracer.install("ordalg")
    try:
        run_rounds(used, traced, True, traced_gauge, tracer)
    finally:
        tracer.uninstall()
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{setup.workload}-seed{setup.seed}.tsv"
    tracer.write_spans(span_file)
    values = layer_metrics(tracer, sum(plain_gauge.scaled(plain.latencies)),
                           sum(traced_gauge.scaled(traced.latencies)))
    return plain, traced, tracer, values, span_file


# ---------------------------------------------------------------------------
# checker self-test


def checker_selftest(setup):
    """Wrong answers fed through the same judging path must all count as failures."""
    cases = wrong_answers(setup.api)
    caught = sum(1 for op, result in cases if not judge(op, 0.0, result, None)[0])
    return caught, len(cases)


# ---------------------------------------------------------------------------
# report


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def header(args, setup):
    ops = sum(len(r) for r in setup.rounds)
    return [
        f"# ordalg benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"# python={platform.python_version()} nproc={os.cpu_count()} platform={platform.platform()} "
        f"commit={git_commit()}",
        f"# corpus: digest={setup.corpus_digest} rounds={len(setup.rounds)} ops={ops} "
        f"warmup_ops={len(setup.warmup)}; one closed-loop client",
    ]


def metric_lines(metrics):
    return [f"{name:<46} {value:>16.6f} {unit}" for name, (value, unit) in metrics.items()]


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_one(args):
    setup_s = measure_setup_s(args.workload, args.seed) if not args.trace else None
    setup = Setup(args.workload, args.seed)
    try:
        caught, fed = checker_selftest(setup)
        lines = header(args, setup)
        lines.append(f"# checker self-test: {caught}/{fed} injected wrong answers counted as failures")
        if not args.trace:
            tally, gauge, first_pass, elapsed = measure(setup, args.seconds)
            metrics, notes = end_to_end(tally, gauge, setup_s, sum(len(r) for r in setup.rounds))
            correct = tally.failed == 0 and caught == fed
            lines.append(f"# ops={tally.attempted} failed={tally.failed} "
                         f"fail_ratio={tally.failed / tally.attempted:.6f} measured_s={elapsed:.3f} "
                         f"verdict_digest(first pass)={first_pass} op_tail_ms={notes['tail_percentile']} "
                         f"with {notes['ops_beyond_tail']} ops beyond")
            lines.append(f"# {gauge.summary()}")
            lines.append("# unscaled wall-clock timings: " + ", ".join(
                f"{name}={value:.6g} {unit}" for name, (value, unit) in notes["wall"].items()))
            attempted, failed = tally.attempted, tally.failed
        else:
            plain, traced, tracer, values, span_file = traced_run(setup, args.seconds)
            units = layer_metric_units()
            metrics = {name: (values[name], units[name]) for name in units}
            same = plain.verdict_digest == traced.verdict_digest
            correct = plain.failed == 0 and traced.failed == 0 and same and caught == fed
            lines.append(f"# traced ops={traced.attempted} failed={traced.failed}; verdict digest "
                         f"untraced={plain.verdict_digest} traced={traced.verdict_digest} "
                         f"{'match' if same else 'DIFFER'}; spans={len(tracer.spans)} in "
                         f"{span_file.relative_to(ROOT)}")
            lines.append("# self time by op kind (traced):")
            lines += kind_breakdown(tracer)
            attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        lines.append(f"# {'metric':<44} {'value':>16} unit")
        lines += metric_lines(metrics)
        if failed:
            lines.append("# first failures:")
            lines += [f"#   {f}" for f in (tally if not args.trace else traced).failures]
    finally:
        setup.close()
    print("\n".join(lines))
    print(result_line(correct, attempted, failed, metrics))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    ok, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + args.seconds * 4,
            )
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                summary[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(result_line(ok, attempted, failed, summary))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
