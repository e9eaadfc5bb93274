"""rsvp benchmark: training-stage and serving throughput of one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A readable table
goes to standard error. See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# one BLAS thread: on two cores it is no slower at these shapes, and a
# second thread only adds run-to-run spread. Set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["RSVP_LOG"] = "WARNING"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("retrieval_pairs_per_s", "1/s"),
    ("generation_tokens_per_s", "1/s"),
    ("finetune_utts_per_s", "1/s"),
    ("score_utts_per_s", "1/s"),
    ("predict_records_per_s", "1/s"),
    ("score_b1_p50_ms", "ms"),
    ("embed_utts_per_s", "1/s"),
    ("generate_tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MIN_TRAIN_ROUNDS = 2
TRAIN_SHARE = 0.6  # part of the timed window spent in training rounds
MIN_LATENCY_SAMPLES = 1000
REFERENCE_SAMPLE = 4  # serving records checked against the reference forward
# accepted input make-up (mean utterance length, mean response length, vocabulary)
INPUT_RANGES = {
    "desk": {"utterance": (13, 15), "response": (21, 23), "vocab": (240, 280)},
    "long": {"utterance": (80, 90), "response": (118, 134), "vocab": (300, 380)},
}


def _import_program():
    """Import rsvp from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rsvp", "__init__.py")):
        sys.exit(f"perfbench: no rsvp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import rsvp

    if os.path.dirname(os.path.abspath(rsvp.__file__)) != os.path.join(SRC, "rsvp"):
        sys.exit(f"perfbench: imported rsvp from {rsvp.__file__}, not from {SRC}")


def _seconds(span):
    return span[1] - span[0]


def _pipeline_seconds(rnd):
    return sum(_seconds(span) for span in rnd.spans["pipeline"])


class _Window:
    """The timed window: cycles of one set-up sample, one training round
    and serving rounds up to the serving share of the time, so that every
    kind of sample is spread over the whole window. A host-speed mark is
    taken before every step and at the end."""

    def __init__(self, workload, seed, inputs, export_examples, paths, tracer, clock):
        self.workload, self.seed, self.inputs, self.paths = workload, seed, inputs, paths
        self.export_examples = export_examples  # the split export-embeddings writes
        self.tracer = tracer
        self.clock = clock
        self.train_setups, self.serve_setups = [], []  # (start, end)
        self.train_rounds, self.serve_rounds = [], []
        self.serve = None
        self.train_s = self.serve_s = 0.0

    def _phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    def _serve_setup(self):
        import phases

        self._phase("setup")
        serve, span = phases.serve_setup(self.workload, self.seed, self.paths)
        self.serve_setups.append(span)
        return serve

    def cycle(self, ad, np):
        import phases

        self.clock.mark()
        self._phase("setup")
        self.train_setups.append(phases.train_setup(self.workload, self.seed,
                                                    self.inputs.cfg.seeds[0])[1])
        if self.serve is not None:
            self._serve_setup()
        self._phase("train")
        _assert_float32(ad, np)
        # the first round writes the checkpoints the serving rounds load
        paths = self.paths if not self.train_rounds else {
            "generation": self.paths["round_generation"],
            "finetuned": self.paths["round_finetuned"]}
        rnd = phases.train_round(self.inputs, self.inputs.cfg, paths, self.clock.mark)
        self.train_rounds.append(rnd)
        self.train_s += _pipeline_seconds(rnd)
        if self.serve is None:
            self.serve = self._serve_setup()
            self.serve.export_examples = self.export_examples
        share = TRAIN_SHARE
        while self.serve_s < self.train_s * (1.0 - share) / share:
            self.serve_round(ad, np)

    def serve_round(self, ad, np):
        import phases

        self.clock.mark()
        self._phase("serve")
        _assert_float32(ad, np)
        rnd = phases.serve_round(self.workload, self.serve, self.paths)
        self.serve_rounds.append(rnd)
        self.serve_s += sum(_seconds(span) for span in rnd.spans.values())

    def latency_samples(self):
        return sum(len(r.latencies) for r in self.serve_rounds)

    def run(self, seconds, ad, np):
        while True:
            self.cycle(ad, np)
            spent = self.train_s + self.serve_s
            per_cycle = spent / len(self.train_rounds)
            # stop when a further cycle would end over half a cycle late
            if len(self.train_rounds) >= MIN_TRAIN_ROUNDS and spent + per_cycle / 2 > seconds:
                break
        while self.latency_samples() < MIN_LATENCY_SAMPLES:
            self.serve_round(ad, np)
        self.clock.mark()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from rsvp import autodiff as ad
    from rsvp import training as tr

    import checks
    import hostclock
    import phases
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    clock = hostclock.HostClock()
    hostclock.pin_to_fastest_cpu()
    train_seed = seed
    failures: list = []
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=_scratch_dir())
    paths = phases.work_paths(work_dir)
    tracing.assert_untraced()
    try:
        with ad.precision("float32"):
            inputs, _ = phases.train_setup(workload, seed, train_seed)
            cfg, prepared = inputs.cfg, inputs.prepared
            prepared.vocab.save(paths["vocab"])

            # -- checks that need no trained model; they also warm up every code path
            failures += checks.check_inputs(workload, seed, inputs.records, workload.fresh(seed),
                                            prepared, INPUT_RANGES[name])
            failures += checks.check_gradients(prepared, cfg, seed)
            tiny = cfg.replace(d_model=32, n_heads=2, d_ffn=64, pooled_dim=32, n_layers=1,
                               retrieval_epochs=2, generation_epochs=2, finetune_epochs=2)
            composed = phases.train_round(inputs, tiny, None)
            failures += checks.check_pipeline_matches_run_rsvp(
                composed, tr.run_rsvp(prepared, tiny), train_seed)

            export_examples = tr.prepare(workload.fresh(seed), cfg, vocab=prepared.vocab).train
            tracer = None
            untraced_round_s = None
            if trace:
                _assert_float32(ad, np)
                # timed at clock marks like the traced rounds, so that both
                # sides of the overhead ratio are scaled to the reference host
                untraced = phases.train_round(inputs, cfg, None, clock.mark)
                untraced_round_s = _scaled_train_s(clock, untraced)
                tracing.assert_untraced()
                tracer = tracing.Tracer()
                tracer.install()
            window = _Window(workload, seed, inputs, export_examples, paths, tracer, clock)
            try:
                window.run(seconds, ad, np)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

            # -- checks on the outputs
            train_rounds, serve_rounds = window.train_rounds, window.serve_rounds
            serve = window.serve
            failures += checks.check_training(train_rounds, cfg,
                                              [ex.label for ex in prepared.test],
                                              len(prepared.label_names))
            last = serve_rounds[-1]
            sample = range(0, len(serve.examples), len(serve.examples) // REFERENCE_SAMPLE)
            failures += checks.check_scores(last.batched, last.single, paths["finetuned"],
                                            cfg.n_heads, serve.examples, sample)
            failures += checks.check_predict_output(paths["predict_out"], serve.records,
                                                    last.batched, serve.labels)
            embeddings = serve.encoder.encode_batch(
                [ex.utterance_ids for ex in serve.export_examples]).data
            failures += checks.check_embeddings(paths["embeddings"], serve.export_examples,
                                                serve.labels, embeddings)
            failures += checks.check_generation(
                serve.decoder, serve.gen_encoder,
                [ex.utterance_ids for ex in serve.examples[: workload.generate_records]],
                last.generated, workload.generate_max_t)
        if ad.default_dtype() is not np.float32:
            failures.append("dtype: the process default dtype is no longer float32")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # -- operations attempted and failed
    attempted = {stage: sum(r.steps[stage] for r in train_rounds)
                 for stage in train_rounds[0].steps}
    failed = {"steps": sum(r.failed_steps for r in train_rounds)}
    for kind in serve_rounds[0].attempted:
        attempted[kind] = sum(r.attempted[kind] for r in serve_rounds)
        failed[kind] = sum(r.failed[kind] for r in serve_rounds)

    if trace:
        rounds = {"setup": len(train_rounds), "train": len(train_rounds),
                  "serve": len(serve_rounds)}
        values = tracer.per_layer(rounds)
        traced_s = statistics.median([_scaled_train_s(clock, r) for r in train_rounds])
        values["trace.train_s"] = traced_s
        values["trace.overhead_ratio"] = traced_s / untraced_round_s - 1.0
        zero = [k for k, v in values.items() if k != "trace.overhead_ratio" and not v > 0]
        if zero:
            raise RuntimeError(f"traced run left per-layer counters at zero: {zero}")
        units = {n: u for n, u, _ in tracing.PER_LAYER}
    else:
        values = _end_to_end(window, peak_rss_mb)
        units = dict(END_TO_END)

    return {
        "correct": not failures,
        "attempted": int(sum(attempted.values())),
        "failed": int(sum(failed.values())),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        "_failures": failures,
        "_attempted": attempted,
        "_rounds": (len(train_rounds), len(serve_rounds)),
        "_host": {"unscaled train_s": _raw_train_s(window),
                  **{f"{kind} kernel ms": 1e3 * statistics.median(window.clock.kernel_seconds(kind))
                     for kind in hostclock.KERNELS}},
    }


def _assert_float32(ad, np):
    if ad.default_dtype() is not np.float32:
        raise RuntimeError("a timed window opened with a default dtype other than float32")


def _end_to_end(window, peak_rss_mb) -> dict:
    """Each timing is a median over samples, each sample scaled to the
    reference host by the clock marks around it (hostclock.py). Batch-1,
    CLI and decoding samples scale by the forward kernel, set-up by the
    interpreter kernel, training and batched scoring by the array kernel."""
    train, serve, scaled = window.train_rounds, window.serve_rounds, window.clock.scaled

    def time_of(spans, kind):
        return statistics.median([scaled(s, e, kind) for s, e in spans])

    def rate(pairs, kind):
        return statistics.median([work / scaled(s, e, kind) for work, (s, e) in pairs])

    latencies = [scaled(s, e, "forward") for r in serve for s, e in r.latencies]
    n_fresh = serve[0].attempted["predicted"]
    return {
        "setup_s": time_of(window.train_setups, "interp") + time_of(window.serve_setups, "interp"),
        "train_s": statistics.median([_scaled_train_s(window.clock, r) for r in train]),
        "retrieval_pairs_per_s": rate([(r.work["retrieval"], span) for r in train
                                       for span in r.spans["retrieval"]], "array"),
        "generation_tokens_per_s": rate([(r.work["generation"], span) for r in train
                                         for span in r.spans["generation"]], "array"),
        "finetune_utts_per_s": rate([(r.work["finetune"], r.spans["finetune"]) for r in train],
                                    "array"),
        "score_utts_per_s": rate([(n_fresh, r.spans["score"]) for r in serve], "array"),
        "predict_records_per_s": rate([(n_fresh, r.spans["predict"]) for r in serve], "forward"),
        "score_b1_p50_ms": statistics.median(latencies) * 1e3,
        "embed_utts_per_s": rate([(r.attempted["exported"], r.spans["export"]) for r in serve],
                                 "forward"),
        "generate_tokens_per_s": rate([(r.generate_steps, r.spans["generate"]) for r in serve],
                                      "forward"),
        "peak_rss_mb": peak_rss_mb,
    }


def _scaled_train_s(clock, rnd) -> float:
    return sum(clock.scaled(s, e, "array") for s, e in rnd.spans["pipeline"])


def _raw_train_s(window) -> float:
    return statistics.median([_pipeline_seconds(r) for r in window.train_rounds])


def _scratch_dir() -> str:
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


def _report(name, result, elapsed) -> None:
    err = sys.stderr
    n_train, n_serve = result["_rounds"]
    print(f"[{name}] {elapsed:.1f}s, {n_train} training rounds, {n_serve} serving rounds, "
          f"attempted {result['attempted']} failed {result['failed']}, "
          f"correct {result['correct']}", file=err)
    for kind, count in result["_attempted"].items():
        print(f"  attempted {kind:<12} {count}", file=err)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}", file=err)
    for label, value in result["_host"].items():
        print(f"  ({label:<28} {value:>14.6g})", file=err)
    for failure in result["_failures"]:
        print(f"  FAILED CHECK: {failure}", file=err)


def _run_all(args) -> int:
    """Every workload in its own process, untraced, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {name}.{metric} {entry['value']:.6g} {entry['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="desk, long or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    start = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, result, time.perf_counter() - start)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
