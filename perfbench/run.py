"""Classify benchmark for dagkernel: what a user of ``dagkernel classify`` waits for.

Run from the repository root:

    python3 perfbench/run.py --workload template --seed 1 --seconds 40 --trace 0

The benchmark writes a seeded corpus as a classify manifest, then measures
the library protocol and the ``classify`` CLI on it.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it is a JSON report with the machine,
library versions, source revision and corpus sizes; the same report, with
the spans of a traced run, goes to ``.perfbench/``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
medians in seconds at a reference host speed (see ``calibrate.py``):

* ``setup_s``: ``load_manifest`` + ``annotate_dataset``, median of several;
* ``repeat_s``: ``run_experiment`` wall time per repeat, median;
* ``classify_s``: one ``python -m dagkernel.cli classify`` child, start to
  exit, median;
* ``peak_rss_mb``: that child's own peak RSS, median (see ``launcher.py``);
* ``accuracy``: mean accuracy over the repeats.

``--trace 1`` runs the same library protocol untraced and with a span around
every public layer call, in alternating order, and reports per-layer self
times, sizes and the tracing overhead (see ``layers.py``).

With ``--trace 0`` the checks are that the CLI exits 0 and that its
per-repeat accuracies equal the library's; with ``--trace 1``, that the
traced and untraced passes give the same accuracies.  Every run checks that
a seeded sample of Gram entries equals the string-signature oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import calibrate
import checks as chk
import corpora
import layers
from launcher import run_cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REPEATS = 3
MIN_ROUNDS = 2
IMPORTS = 3
# One BLAS/OpenMP thread per process keeps the load within two cores: the
# benchmark process and one CLI child at a time.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], corpora.Corpus]
    weight: str  # "discr" learns discriminance weights; "exp" uses lambda = 0.5

    def config(self, seed: int):
        from dagkernel.pipeline import ExperimentConfig

        if self.weight == "exp":
            return ExperimentConfig("exponential", lam=0.5, repeats=REPEATS, seed=seed)
        return ExperimentConfig("discriminance", repeats=REPEATS, seed=seed)

    def cli_flags(self, ordered: bool, seed: int) -> list[str]:
        flags = ["--mode", "ordered" if ordered else "unordered", "--labeled"]
        flags += ["--weight", self.weight, "--repeats", str(REPEATS), "--seed", str(seed)]
        return flags + (["--lambda", "0.5"] if self.weight == "exp" else [])


WORKLOADS = {
    # High sharing: about 20k tree vertices become about 94 DAG vertices.
    # About 95% of the time is the kernel per-pair Gram loop, on its lazy matching path
    # (more than 512 members); dag, annotate and weights are close to idle.
    # Shows Gram work, and no change from a compression change.  700 trees
    # rather than 1000 leave room for several rounds in one run.
    "template": Workload(lambda seed: corpora.template_corpus(seed, per_class=350), "discr"),
    # Low sharing: 180k tree vertices become about 33k DAG vertices.  In a
    # traced pass (seed 7, 2 vCPUs) parsing, dag compression, annotate and
    # weights.class_profile took 51% of the time (6%, 27%, 3% and 15%);
    # unordered mode exercises the multiplicity encoding.  Class 1 caps
    # branching at 3 and skews labels 3:1:1 (see corpora.py).  The workload
    # for compression, annotation and profile changes.
    "random": Workload(
        lambda seed: corpora.random_corpus(seed, per_class=300, n_vertices=300), "discr"
    ),
    # 480 members, below FULL_MATCHING_DEFAULT_LIMIT (512), so annotate builds
    # the eager all-pairs matching map and the Gram loop reads it; exponential
    # weights skip weight learning.  The other side of the eager/lazy switch:
    # removing the eager map must lower setup_s/peak_rss_mb here without a
    # worse repeat_s.
    "template-small": Workload(lambda seed: corpora.template_corpus(seed, per_class=240), "exp"),
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
    }


def git_rev():
    # Only a checkout with its own .git: git must not search the parents.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the library sources, which identifies the code measured
    where no git metadata is present."""
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def prepare(workload: Workload, seed: int, work: str):
    """Write the seeded corpus as a manifest; return it with its tree mode."""
    from dagkernel.trees import TreeMode

    corpus = workload.make(seed)
    manifest = os.path.join(work, "manifest.csv")
    corpora.write_manifest(corpus, manifest)
    return corpus, manifest, TreeMode(ordered=corpus.ordered, labeled=True)


def corpus_report(corpus: corpora.Corpus, annotated) -> dict:
    return {
        "trees": len(corpus.trees),
        "vertices": corpus.n_vertices,
        "dag_vertices": len(annotated.dag) - 1,
    }


def end_to_end(workload, seed, seconds, work, checks):
    """Repeat set-up, a library pass and a CLI child while the next round
    still fits in ``seconds``, with at least MIN_ROUNDS rounds.  Times are
    medians at reference speed (see ``calibrate.py``); a calibration runs
    before set-up, between the library pass and the CLI, and after the CLI."""
    from dagkernel.pipeline import annotate_dataset, load_manifest, run_experiment

    corpus, manifest, mode = prepare(workload, seed, work)
    config = workload.config(seed)
    out_csv = os.path.join(work, "cli_out.csv")
    cli_args = ["classify", manifest, *workload.cli_flags(corpus.ordered, seed), "--out", out_csv]
    env = child_env()
    started = time.perf_counter()
    calibration = [calibrate.calibration_s()]
    raw = {"setup_s": [], "repeat_s": [], "classify_s": []}
    scaled = {name: [] for name in raw}
    rss_mb = []
    while True:
        annotated = None  # free the previous annotation before building the next
        t0 = time.perf_counter()
        dataset, _ = load_manifest(manifest, mode)
        annotated = annotate_dataset(dataset)
        t1 = time.perf_counter()
        outcomes = run_experiment(dataset, config, annotated=annotated)
        t2 = time.perf_counter()
        accuracies = [o.metrics.accuracy for o in outcomes]
        accuracy = statistics.fmean(accuracies)
        calibration.append(calibrate.calibration_s())
        run = run_cli(cli_args, env, os.path.join(work, "cli.log"))
        calibration.append(calibrate.calibration_s())
        rss_mb.append(run.peak_rss_mb)
        chk.check_cli(checks, run, out_csv, accuracies)
        before, between, after = calibration[-3:]
        for name, value, around in (
            ("setup_s", t1 - t0, (before, between)),
            ("repeat_s", (t2 - t1) / REPEATS, (before, between)),
            ("classify_s", run.seconds, (between, after)),
        ):
            raw[name].append(value)
            scaled[name].append(calibrate.at_reference_speed(value, *around))
        now = time.perf_counter()
        if len(rss_mb) >= MIN_ROUNDS and now - started + (now - t0) > seconds:
            break
    chk.check_gram_oracle(checks, dataset, annotated, seed)
    metrics = {name: (statistics.median(values), "s") for name, values in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(rss_mb), "MB")
    metrics["accuracy"] = (accuracy, "fraction")
    samples = {"raw": raw, "calibration_s": calibration, "peak_rss_mb": rss_mb}
    return metrics, {"corpus": corpus_report(corpus, annotated), "samples": samples}


def cli_import_s(env: dict, checks) -> float:
    """Median wall time of a fresh ``import dagkernel.cli`` in a child."""
    code = ("import time; t = time.perf_counter(); import dagkernel.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORTS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        if checks.check(done.returncode == 0, f"import dagkernel.cli exit {done.returncode}"):
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times) if times else 0.0


def protocol(manifest, mode, config):
    """What a user of the library runs: set up, then the classify protocol."""
    from dagkernel.pipeline import annotate_dataset, load_manifest, run_experiment

    dataset, _ = load_manifest(manifest, mode)
    annotated = annotate_dataset(dataset)
    outcomes = run_experiment(dataset, config, annotated=annotated)
    return dataset, annotated, [o.metrics.accuracy for o in outcomes]


def traced(workload, seed, seconds, work, checks):
    """Run the protocol untraced and traced in each round, in alternating
    order, while the next round still fits in ``seconds``, with at least
    MIN_ROUNDS rounds.  Per-layer metrics are medians over the traced passes;
    the tracing overhead is the traced minus the untraced median."""
    corpus, manifest, mode = prepare(workload, seed, work)
    config = workload.config(seed)
    started = time.perf_counter()
    untraced_s, traced_s, per_round, spans = [], [], [], []
    while True:
        t0 = time.perf_counter()
        accuracies = {}
        for is_traced in (False, True) if len(per_round) % 2 == 0 else (True, False):
            dataset = annotated = None  # free the previous pass's annotation first
            tracer = layers.Tracer()
            t = time.perf_counter()
            with layers.instrumented(tracer) if is_traced else nullcontext() as kernel_work:
                dataset, annotated, accuracies[is_traced] = protocol(manifest, mode, config)
            (traced_s if is_traced else untraced_s).append(time.perf_counter() - t)
            if is_traced:
                per_round.append(layers.layer_metrics(
                    tracer, kernel_work, dataset, annotated, REPEATS))
                spans.append(tracer.to_json())
        # The spans must not change what the protocol computes.
        checks.check(accuracies[True] == accuracies[False],
                     f"traced accuracies {accuracies[True]} differ from "
                     f"untraced {accuracies[False]}")
        now = time.perf_counter()
        if len(per_round) >= MIN_ROUNDS and now - started + (now - t0) > seconds:
            break
    metrics = {
        name: (statistics.median(r[name][0] for r in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    metrics["annotate.peak_mb"] = (layers.annotate_peak_mb(dataset), "MB")
    metrics["cli.import_s"] = (cli_import_s(child_env(), checks), "s")
    metrics["trace.untraced_s"] = (statistics.median(untraced_s), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s), "s"
    )
    chk.check_gram_oracle(checks, dataset, annotated, seed)
    extra = {"corpus": corpus_report(corpus, annotated), "absent_layers": layers.absent_layers(),
             "samples": {"untraced_s": untraced_s, "traced_s": traced_s}, "spans": spans}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dagkernel")):
        print(f"perfbench: no dagkernel sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    checks = chk.Checks()
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, extra = traced(workload, args.seed, args.seconds, work, checks)
    else:
        metrics, extra = end_to_end(workload, args.seed, args.seconds, work, checks)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), **extra, "result": result}
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    report.pop("spans", None)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
