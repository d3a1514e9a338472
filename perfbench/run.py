"""relclass benchmark: the CLI at paper-scale shapes, end to end and per layer.

    python3 perfbench/run.py --workload {svm-train,clstm-train} \
        --seed N --seconds S --trace {0,1} [--scale {paper,tiny}]

Run from anywhere inside a checkout; everything is read and written under
the checkout (`.bench_work/`). A single closed-loop client runs the
`relclass` CLI one process per command, back to back, never two at a time,
with BLAS at its default thread count. Each run:

1. set-up: writes the seeded inputs (three times, median time) and trains,
   through the CLI, the model of the other kind that the read side needs;
2. measured span: the workload's training command runs, then its read
   side, which labels the held-out corpus with an SVM and a conv-LSTM
   model. After that the command with the least measured time so far runs
   next, until the next one would end after ``--seconds`` (each runs at
   least ``MIN_SAMPLES`` times); every time is a mean over its samples;
3. with ``--trace 1``: replays every distinct command of the run once under
   ``tracer.py`` and derives the per-layer metrics from the spans.

Every command's exit code and outputs are checked outside the timed spans.
The last stdout line is the result object; the line before it is the run's
record (environment, input shapes, samples, per-command figures).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_DEADLINE_S = 170.0
MIN_SAMPLES = 3
GEN_REPEATS = 3
IMPORT_REPEATS = 3
CLSTM_EPOCHS = 2  # every epoch after the first is identical work
SETUP_CLSTM_EPOCHS = 1  # read-side models only have to exist and load
SVM_ARGS = ["--C", "100", "--gamma", "0.001"]
CLSTM_ARGS = ["--num-filters", "384", "--filter-width", "3", "--rnn-units", "93",
              "--batch-size", "128", "--dropout", "0.23", "--l2", "0.79"]
# Cross-entropy of a uniform guess plus the L2 term of the initial softmax
# weights (uniform in [-0.1, 0.1], 6 x 93 of them): the expected loss of the
# untrained network. A trained run's final epoch must come in below it.
LOSS_AT_INIT = math.log(6) + 0.79 / 2 * (6 * 93 * 0.1**2 / 3)
# The SVM must clear twice the macro-F1 of always answering the commonest
# class; the conv-LSTM, which after a few epochs at the paper's L2 scale
# still sits near that baseline, must not fall below 0.8 of it.
SVM_FLOOR_X_BASELINE = 2.0
CLSTM_FLOOR_X_BASELINE = 0.8


@dataclass(frozen=True)
class Cmd:
    role: str  # svm_train, clstm_train, svm_predict or clstm_predict
    args: tuple[str, ...]


def train(model: str, epochs: int | None = None) -> Cmd:
    extra = SVM_ARGS if model == "svm" else CLSTM_ARGS + ["--epochs", str(epochs)]
    return Cmd(f"{model}_train", ("train", "--model", model, "--train", "train.jsonl",
                                  "--embeddings", "vectors.txt", "--levin", "verbs.tsv",
                                  "--out", f"{model}.json", "--report", f"{model}_report.json",
                                  *extra))


def predict(model: str, corpus: str) -> Cmd:
    return Cmd(f"{model}_predict", ("predict", "--model-file", f"{model}.json",
                                    "--corpus", f"{corpus}.jsonl", "--embeddings", "vectors.txt",
                                    "--levin", "verbs.tsv", "--out", f"{model}_pred.jsonl"))


@dataclass(frozen=True)
class Workload:
    setup: tuple[Cmd, ...]
    timed: Cmd  # the training command behind wall_s and instances_per_s
    read: tuple[Cmd, ...]  # predict commands on the held-out corpus
    scored: str  # model kind whose predictions give macro_f1

    def passes(self, scale: gen.Scale) -> int:
        """Instances processed by one run of the timed command."""
        return scale.train * (CLSTM_EPOCHS if self.timed.role == "clstm_train" else 1)


# Why each workload exists is written up in perfbench/README.md.
READ_SIDE = (predict("svm", "held_out"), predict("clstm", "held_out"))
WORKLOADS = {
    "svm-train": Workload(
        setup=(train("clstm", SETUP_CLSTM_EPOCHS),),
        timed=train("svm"),
        read=READ_SIDE,
        scored="svm",
    ),
    "clstm-train": Workload(
        setup=(train("svm"),),
        timed=train("clstm", CLSTM_EPOCHS),
        read=READ_SIDE,
        scored="clstm",
    ),
}


class CommandFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: its directory, its commands, its checks."""

    def __init__(self, workload: str, seed: int, scale: gen.Scale, deadline: float):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.dir = WORK / f"run-{workload}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.commands: list[dict] = []

    # -- checks ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def gold(self, corpus: str) -> dict[str, str]:
        with open(self.dir / f"{corpus}.jsonl", encoding="utf-8") as fh:
            return {rec["id"]: rec["label"] for rec in map(json.loads, fh)}

    def check_predictions(self, cmd: Cmd) -> float:
        """Row per id, normalised probabilities, argmax label; returns macro-F1."""
        corpus = cmd.args[cmd.args.index("--corpus") + 1].removesuffix(".jsonl")
        gold = self.gold(corpus)
        with open(self.dir / cmd.args[cmd.args.index("--out") + 1], encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        ids = Counter(row["id"] for row in rows)
        self.check(len(rows) == len(gold) and set(ids) == set(gold) and max(ids.values()) == 1,
                   f"{cmd.role}: one prediction row per input id")
        sums_ok = all(abs(sum(row["proba"].values()) - 1.0) <= 1e-9
                      and all(0.0 <= p <= 1.0 for p in row["proba"].values())
                      and row["proba"][row["label"]] == max(row["proba"].values())
                      for row in rows)
        self.check(sums_ok, f"{cmd.role}: probabilities sum to 1 within 1e-9, label is the argmax")
        f1 = macro_f1([gold[row["id"]] for row in rows if row["id"] in gold],
                      [row["label"] for row in rows if row["id"] in gold])
        baseline = majority_macro_f1(list(gold.values()))
        factor = SVM_FLOOR_X_BASELINE if cmd.role == "svm_predict" else CLSTM_FLOOR_X_BASELINE
        if self.scale is gen.PAPER:
            self.check(f1 >= factor * baseline,
                       f"{cmd.role}: macro-F1 {f1:.4f} below floor {factor} x {baseline:.4f}")
        return f1

    def check_training(self, cmd: Cmd) -> dict:
        report_path = self.dir / f"{cmd.role.split('_')[0]}_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if cmd.role == "clstm_train":
            loss = report.get("final_epoch_loss")
            self.check(isinstance(loss, float) and math.isfinite(loss) and loss < LOSS_AT_INIT,
                       f"clstm_train: final epoch loss {loss} finite and below {LOSS_AT_INIT:.4f}")
        return report

    # -- commands -------------------------------------------------------

    def run_cli(self, cmd: Cmd, spans: Path | None = None) -> dict:
        """One CLI process; returns its wall time and peak RSS, checks its outputs."""
        if spans is None:
            argv = [sys.executable, "-m", "relclass.cli", *cmd.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), spans.stem, "--", *cmd.args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise CommandFailed(f"run deadline passed before {cmd.role}")
        with open(self.dir / "commands.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"role": cmd.role, "traced": spans is not None, "wall_s": wall,
                  "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}
        self.commands.append(record)
        if not self.check(proc.returncode == 0, f"{cmd.role}: exit code {proc.returncode}"):
            log_tail = (self.dir / "commands.log").read_text(errors="replace")[-2000:]
            print(log_tail, file=sys.stderr)
            raise CommandFailed(f"{cmd.role} exited with {proc.returncode}")
        try:
            if cmd.role.endswith("_predict"):
                record["macro_f1"] = self.check_predictions(cmd)
            else:
                record["report"] = self.check_training(cmd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.check(False, f"{cmd.role}: unreadable output: {exc!r}")
            raise CommandFailed(f"{cmd.role} wrote unreadable output") from exc
        return record

    # -- phases ---------------------------------------------------------

    def setup(self) -> tuple[float, dict]:
        gen_s = []
        for _ in range(GEN_REPEATS):
            start = time.perf_counter()
            inputs = gen.generate(self.seed, self.scale, self.dir)
            gen_s.append(time.perf_counter() - start)
        train_s = sum(self.run_cli(cmd)["wall_s"] for cmd in self.spec.setup)
        return statistics.median(gen_s) + train_s, inputs

    def measure(self, seconds: float) -> list[dict]:
        """Runs the timed command, then the read side, then always the
        command with the least measured time so far, so each gets about the
        same share of ``seconds``. Stops before a command that would end
        after ``seconds``, once each has run ``MIN_SAMPLES`` times. Returns
        the records of every command run."""
        cmds = (self.spec.timed, *self.spec.read)
        start = time.perf_counter()
        records = [self.run_cli(cmd) for cmd in cmds]
        samples = {cmd: [rec["wall_s"]] for cmd, rec in zip(cmds, records)}
        while True:
            short = [c for c in cmds if len(samples[c]) < MIN_SAMPLES]
            cmd = min(short or cmds, key=lambda c: sum(samples[c]))
            ends = time.perf_counter() - start + statistics.fmean(samples[cmd])
            if not short and ends > seconds:
                return records
            records.append(self.run_cli(cmd))
            samples[cmd].append(records[-1]["wall_s"])

    def traced_replay(self) -> tuple[float, list[list]]:
        spans = self.dir / f"trace-{self.name}-s{self.seed}.jsonl"
        wall = 0.0
        for cmd in dict.fromkeys((*self.spec.setup, self.spec.timed, *self.spec.read)):
            wall += self.run_cli(cmd, spans)["wall_s"]
        kept = WORK / "traces" / spans.name
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(spans, kept)
        return wall, tracer.read_spans(spans)

    def import_seconds(self) -> float:
        times = []
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", "import relclass.cli"], env=self.env,
                                  cwd=self.dir, timeout=max(1.0, self.deadline - time.monotonic()))
            times.append(time.perf_counter() - start)
            self.check(done.returncode == 0, "import relclass.cli")
        return statistics.median(times)


def macro_f1(gold: list[str], pred: list[str]) -> float:
    """Macro-F1 over all six labels, 0/0 counted as 0."""
    total = 0.0
    for label in gen.LABELS:
        tp = sum(g == label and p == label for g, p in zip(gold, pred))
        fp = sum(g != label and p == label for g, p in zip(gold, pred))
        fn = sum(g == label and p != label for g, p in zip(gold, pred))
        total += 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return total / len(gen.LABELS)


def majority_macro_f1(gold: list[str]) -> float:
    commonest = Counter(gold).most_common(1)[0][0]
    return macro_f1(gold, [commonest] * len(gold))


def environment() -> dict:
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    blas = {"library": None, "threads": None, "config": None}
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
    if libs:
        lib = ctypes.CDLL(libs[0])
        blas["library"] = Path(libs[0]).name
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads and config:
                config.restype = ctypes.c_char_p
                blas["threads"] = threads()
                blas["config"] = config().decode()
                break
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "relclass").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def by_role(records: list[dict], key: str) -> dict[str, list]:
    values: dict[str, list] = {}
    for rec in records:
        values.setdefault(rec["role"], []).append(rec[key])
    return values


def end_to_end(run: Run, setup_s: float, measured: list[dict]) -> tuple[dict, dict]:
    """End-to-end figures of the measured span. Times are means: the
    host's speed wanders by ~10 % within seconds, and over a handful of
    samples the mean is steadier than the median."""
    spec = run.spec
    wall = by_role(measured, "wall_s")
    wall_s = statistics.fmean(wall[spec.timed.role])
    f1 = by_role([c for c in measured if c["role"].endswith("_predict")], "macro_f1")
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "instances_per_s": spec.passes(run.scale) / wall_s,
        "svm_predict_s": statistics.fmean(wall["svm_predict"]),
        "clstm_predict_s": statistics.fmean(wall["clstm_predict"]),
        "peak_rss_mb": max(c["rss_mb"] for c in measured),
        "macro_f1": statistics.median(f1[f"{spec.scored}_predict"]),
    }
    samples = {role: len(times) for role, times in wall.items()}
    samples["setup_s"] = f"{GEN_REPEATS} input generations (median) + 1 model set-up"
    return with_units(values, "end_to_end"), samples


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def per_layer(run: Run, measured: list[dict]) -> dict:
    setup_wall = sum(c["wall_s"] for c in run.commands[: len(run.spec.setup)])
    # the replay runs each distinct command once: set-up plus one mean of each role
    untraced_wall = setup_wall + sum(map(statistics.fmean, by_role(measured, "wall_s").values()))
    traced_wall, spans = run.traced_replay()
    for history in tracer.loss_histories(spans):
        run.check(all(map(math.isfinite, history)) and (len(history) < 2 or history[-1] < history[0]),
                  f"clstm_train: loss history finite and falling: {history}")
    values = tracer.layer_metrics(spans)
    values["cli.import_s"] = run.import_seconds()
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return with_units(values, "per_layer")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="tiny: seconds-long inputs for the smoke test; no F1 floors")
    args = parser.parse_args(argv)
    if not (SRC / "relclass" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'relclass'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_DEADLINE_S
    scale = gen.PAPER if args.scale == "paper" else gen.TINY
    run = Run(args.workload, args.seed, scale, deadline)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": environment()}
    metrics: dict = {}
    try:
        setup_s, inputs = run.setup()
        measured = run.measure(args.seconds)
        metrics, samples = end_to_end(run, setup_s, measured)
        record["samples"] = samples
        reports = {c["role"]: c["report"] for c in run.commands if "report" in c}
        record["inputs"] = dict(inputs, l_max=reports["clstm_train"]["l_max"],
                                feature_space_size=reports["svm_train"]["feature_space_size"])
        if args.trace:
            metrics = per_layer(run, measured)
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    record["commands"] = [{k: v for k, v in c.items() if k != "report"} for c in run.commands]
    record["error_rate"] = run.failed / max(run.attempted, 1)
    record["failures"] = run.failures
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": run.failed == 0, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
