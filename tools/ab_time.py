"""In-process A/B timer: the working tree's ``src/rsvp`` against a parent revision's.

    python3 tools/ab_time.py --parent HEAD~1 --workload long --repeats 10
    python3 tools/ab_time.py --parent 135b763 --workload desk --set d_model=64

The parent's ``src/rsvp`` is extracted with ``git archive`` into a
temporary directory. Both trees are imported into this one process, under
the package names ``rsvp_parent`` and ``rsvp_change`` (every module in the
package imports its siblings relatively). The process runs one BLAS thread
and pins itself to the lowest CPU it may run on; ``taskset -c 1`` in front
of the command picks CPU 1. A build-dependent bias of the host then falls
on both sides alike, which sequential benchmark runs in separate processes
cannot guarantee.

The units are ``training.prepare`` of the workload's records with a fresh
vocabulary, one epoch of each training stage, batched scoring, batch-1
scoring and greedy decoding, at the shapes of a ``perfbench/workloads.py``
workload. Each repeat times every unit on both sides, by process CPU time,
the parent first on even repeats and the change first on odd ones. For
each unit the last line gives the median change/parent time ratio, its
interquartile range and the repeats the change won. Decoding is timed per
decoder step, so sides that stop at different lengths still compare.

The last two columns, ``parent_flt`` and ``change_flt``, are each side's
median count of minor page faults per run of the unit (``ru_minflt`` of
``getrusage(RUSAGE_SELF)`` before and after it, for a whole run also in
decoding). A fault is the first touch of a fresh page, so a change that
keeps large temporaries alive longer, and makes the allocator map new
pages for their successors, shows as a higher count. Both sides share one
allocator and heap, so the counts are a hint of such a change, not the
memory figure of either tree alone; peak memory still needs benchmark
runs in separate processes.

A/A calibration: ``--parent HEAD`` on an unchanged tree (``81c243c``),
under ``taskset -c 1`` on a 2-vCPU AVX-512 Xeon, run twice at 6 and at
12 repeats. Median change/parent ratio per unit, interquartile range in
brackets, first round:

    unit              desk x6             desk x12            long x6             long x12
    prepare           1.009 (0.978-1.065) 0.930 (0.902-1.026) 1.002 (0.913-1.105) 1.010 (0.908-1.046)
    retrieval_epoch   0.997 (0.977-1.119) 1.034 (0.992-1.066) 1.024 (1.010-1.059) 0.993 (0.910-1.064)
    generation_epoch  0.989 (0.925-1.011) 0.997 (0.976-1.035) 0.969 (0.913-1.001) 0.992 (0.940-1.011)
    finetune_epoch    0.992 (0.955-1.048) 0.981 (0.905-1.049) 0.986 (0.977-1.010) 1.031 (0.997-1.062)
    score_batched     0.980 (0.971-1.008) 1.001 (0.957-1.007) 0.996 (0.961-1.013) 1.012 (0.991-1.034)
    score_b1          1.008 (0.970-1.020) 1.010 (0.990-1.017) 0.994 (0.972-1.010) 1.024 (0.966-1.050)
    decode_step       0.974 (0.915-0.981) 0.999 (0.958-1.198) 1.012 (0.987-1.025) 0.954 (0.935-1.017)

Second round, 12 repeats: ``desk`` retrieval_epoch 1.043, generation_epoch
0.934 and score_b1 1.047; every ``long`` unit within 0.968-1.030. Twelve
repeats therefore do not keep every unit within 1.00 +/- 0.03: 7 of the 28
unit medians at 12 repeats fell outside it, against 3 of 28 at 6 repeats,
and the worst read 0.930 and 1.047. A ratio within about 0.93-1.07 is not
a measured difference.
"""
from __future__ import annotations

import os
import resource

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads
os.environ.setdefault("RSVP_LOG", "WARNING")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEED = 1  # of the workload's records and of training
UNITS = ("prepare", "retrieval_epoch", "generation_epoch", "finetune_epoch", "score_batched",
         "score_b1", "decode_step")


def extract_parent(rev: str, dest: str) -> str:
    """Write ``rev``'s ``src/rsvp`` under ``dest``; returns the package directory."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src/rsvp"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return os.path.join(dest, "src", "rsvp")


def load_package(name: str, pkg_dir: str):
    """Import the package at ``pkg_dir`` as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workload(name: str):
    """A workload of ``perfbench/workloads.py``, which imports ``rsvp`` by
    its own name (from the working tree): it only generates records."""
    sys.path.insert(0, SRC)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


def with_overrides(cfg, items):
    """``cfg`` with ``key=value`` overrides, parsed as ``rsvp --set`` parses them."""
    from rsvp.config import _parse_overrides  # importable once load_workload has run
    return cfg.replace(**_parse_overrides(items))


class Side:
    """One tree's package with the workload's data prepared, and a
    zero-argument setup per unit that returns the call to time."""

    def __init__(self, name: str, cfg, records, generate_records: int, max_t: int):
        self.tr = importlib.import_module(f"{name}.training")
        self.model = importlib.import_module(f"{name}.model")
        self.SeedHub = importlib.import_module(f"{name}.rng").SeedHub
        text = importlib.import_module(f"{name}.text")
        self.cfg = importlib.import_module(f"{name}.config").StageConfig(**dataclasses.asdict(cfg))
        self.records = [text.DialogueRecord(**dataclasses.asdict(r)) for r in records]
        self.prepared = self.tr.prepare(self.records, self.cfg)
        p = self.prepared
        self.seqs = [ex.utterance_ids for ex in p.train + p.valid + p.test]
        self.generate_seqs = self.seqs[:generate_records]
        self.max_t = max_t
        # serving runs at the initial weights; evaluation leaves them unchanged
        enc = self.encoder()
        self.serving = (enc,
                        self.model.IntentClassifier(self.cfg.pooled_dim, len(p.label_names),
                                                    self.hub().stream("classifier_init")),
                        self.model.init_decoder_from_encoder(enc, self.hub().stream("decoder_init")))

    def hub(self):
        return self.SeedHub(self.cfg.seeds[0])

    def encoder(self):
        return self.model.ConversationalEncoder(self.cfg.encoder_config(len(self.prepared.vocab)),
                                                self.hub().stream("encoder_init"))

    def prepare(self):
        return lambda: self.tr.prepare(self.records, self.cfg)

    def retrieval_epoch(self):
        enc, cfg = self.encoder(), self.cfg.replace(retrieval_epochs=1)
        return lambda: self.tr.pretrain_retrieval(enc, self.prepared.train, cfg, self.hub())

    def generation_epoch(self):
        enc, cfg = self.encoder(), self.cfg.replace(generation_epochs=1)
        dec = self.model.init_decoder_from_encoder(enc, self.hub().stream("decoder_init"))
        return lambda: self.tr.pretrain_generation(enc, self.prepared.train, cfg, self.hub(),
                                                   decoder=dec)

    def finetune_epoch(self):
        enc, cfg, p = self.encoder(), self.cfg.replace(finetune_epochs=1), self.prepared
        return lambda: self.tr.finetune(enc, p.train, p.valid, cfg, self.hub(),
                                        len(p.label_names))

    def score_batched(self):
        enc, clf, _ = self.serving
        return lambda: self.tr.score_utterances(enc, clf, self.seqs, self.cfg.multi_label)

    def score_b1(self):
        enc, clf, _ = self.serving
        return lambda: [self.tr.score_utterances(enc, clf, [s], self.cfg.multi_label)
                        for s in self.seqs]

    def decode_step(self):
        """Greedy decoding; the call returns its decoder steps, one per
        emitted token plus the one that chose [EOS]."""
        enc, _, dec = self.serving

        def run():
            outs = [dec.generate(enc, u, self.max_t) for u in self.generate_seqs]
            return sum(len(o) + (len(o) < self.max_t) for o in outs)
        return run


def timed(side: Side, unit: str) -> tuple:
    """CPU seconds of one run of ``unit``, per decoder step for decoding,
    and the minor page faults of the run."""
    call = getattr(side, unit)()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    steps = call()
    elapsed = time.process_time() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return (elapsed / steps if unit == "decode_step" else elapsed), faults


def compare(parent: Side, change: Side, repeats: int, out=sys.stdout) -> dict:
    """Time every unit ``repeats`` times per side after one untimed warm-up
    run each; returns {unit: (parent runs, change runs)}, each run a
    (seconds, minor page faults) pair."""
    for unit in UNITS:
        timed(parent, unit), timed(change, unit)
    runs = {unit: ([], []) for unit in UNITS}
    for rep in range(repeats):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for unit in UNITS:
            for i in order:
                runs[unit][i].append(timed((parent, change)[i], unit))
    print(f"{'unit':<18}{'parent_s':>11}{'change_s':>11}{'ratio':>8}  {'IQR':<13}{'won':<7}"
          f"{'parent_flt':>11}{'change_flt':>11}", file=out)
    for unit, sides in runs.items():
        (a, a_flt), (b, b_flt) = (zip(*side) for side in sides)
        ratios = [y / x for x, y in zip(a, b)]
        q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                     if len(ratios) > 1 else ratios * 3)
        won = sum(y < x for x, y in zip(a, b))
        print(f"{unit:<18}{statistics.median(a):>11.5f}{statistics.median(b):>11.5f}"
              f"{statistics.median(ratios):>8.3f}  {q1:.3f}-{q3:.3f}  {f'{won}/{repeats}':<7}"
              f"{statistics.median(a_flt):>11.0f}{statistics.median(b_flt):>11.0f}", file=out)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", default="desk", choices=("desk", "long"))
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config field of the workload, as rsvp --set does")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = load_workload(args.workload)
    try:
        cfg = with_overrides(workload.config(SEED), args.set)
    except ValueError as e:
        ap.error(str(e))
    records = workload.records(SEED)
    with tempfile.TemporaryDirectory(prefix="ab_time_") as tmp:
        load_package("rsvp_parent", extract_parent(args.parent, tmp))
        load_package("rsvp_change", os.path.join(SRC, "rsvp"))
        sides = [Side(name, cfg, records, workload.generate_records, workload.generate_max_t)
                 for name in ("rsvp_parent", "rsvp_change")]
        print(f"# {args.workload}, parent {args.parent}, {args.repeats} repeats, cpu {cpu}")
        compare(*sides, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
