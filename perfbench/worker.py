"""One benchmark run of one workload, in a process started by ``run.py``.

The run writes the workload's city with ``landuse synth``, applies the
benchmark's transforms and runs the six pipeline stages once as a warm-up.
It then repeats rounds until the run length is used up: each round writes
the city again (set-up) and runs one pass of the six stages. Every stage is
one call of ``landuse.cli.main``. With ``--trace 1`` the rounds add traced
passes and the run reports per-layer figures instead. The outputs are then
checked apart from the program. The last line on standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import spans
import workloads
from landuse import (classifier, cli, dataset, fusion_mapping, geodata,
                     taxonomy)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
KERNEL_CALLS = 200
MB = 2.0 ** 20
PROBE = Path(__file__).with_name("stages.py")
clock = time.perf_counter


class Run:
    """Counts operations (stage calls and checks) and their failures."""

    def __init__(self, workload: workloads.Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.data = run_dir / "data"
        self.spare = run_dir / "spare"
        self.out = run_dir / "out"
        self.cfg = run_dir / "cfg.txt"
        self.cfg.write_text(workload.config_text(seed), encoding="utf-8")
        # the same city, written where the pipeline does not read it
        self.spare_cfg = run_dir / "spare.txt"
        self.spare_cfg.write_text(workload.config_text(seed, self.spare.name),
                                  encoding="utf-8")
        self.inputs: dict[str, str] = {}
        self.input_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def stage(self, name: str, cfg: Path | None = None) -> float:
        self.attempted += 1
        t0 = clock()
        code = cli.main([name, "--config", str(cfg or self.cfg)])
        elapsed = clock() - t0
        if code != 0:
            self.failed += 1
            print(f"perfbench: stage {name} exited {code}", file=sys.stderr)
        return elapsed

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            print(f"perfbench: check {what} failed ({len(problems)} problems),"
                  f" first: {problems[0]}", file=sys.stderr)

    def traced_stage(self, name: str, tracer: spans.Tracer | None,
                     cfg: Path | None = None) -> float:
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            return self.stage(name, cfg)

    def one_pass(self, tracer: spans.Tracer | None = None) -> float:
        return sum(self.traced_stage(name, tracer) for name in workloads.STAGES)

    # -- phases ----------------------------------------------------------

    def setup(self) -> float:
        """Write the pipeline's city, keep its digest as the reference for
        every later write, then apply the benchmark's transforms."""
        elapsed = self.stage("synth")
        self.inputs = checks.tree_digest(self.data)
        self.input_mb = sum((self.data / name).stat().st_size
                            for name in self.inputs) / MB
        workloads.apply_transforms(self.workload, self.data, self.seed)
        return elapsed

    def rewrite(self, tracer: spans.Tracer | None = None) -> float:
        """Write the city again beside the pipeline's inputs. It must give
        the same bytes as the first write."""
        elapsed = self.traced_stage("synth", tracer, self.spare_cfg)
        self.check("synth byte-identical", checks.check_identical(
            self.inputs, checks.tree_digest(self.spare), "synth"))
        return elapsed

    def rss_probe(self) -> float:
        """Peak RSS (MB) of a fresh process that runs the six stages only."""
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(self.cfg), *workloads.STAGES],
            stdout=subprocess.PIPE, text=True, timeout=150, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, code in zip(workloads.STAGES, probe["codes"]):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"perfbench: probe stage {name} exited {code}",
                      file=sys.stderr)
        return probe["peak_rss_kb"] / 1024.0

    def check_outputs(self) -> dict:
        """Run every output check; return the report and the artifacts the
        per-layer figures need."""
        rows, features = workloads.manifest_features(self.data / "map.jsonl")
        ids = [str(r["id"]) for r in rows]
        geo = {str(r["id"]): (r["lon"], r["lat"]) for r in rows if "lon" in r}
        labels = {str(r["id"]): r["label"] for r in rows}
        parcels = checks.read_parcels(self.data / "parcels.geojson")
        assign_rows = workloads.read_jsonl(self.out / "assignments.jsonl", "image")
        pred_rows = workloads.read_jsonl(self.out / "predictions.jsonl", "image")
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        models = {s: workloads.read_lusm(self.out / f"model_{s}_adapted.lusm")[:2]
                  for s in workloads.STREAMS}
        map_doc = json.loads((self.out / "map.geojson").read_text(encoding="utf-8"))

        self.check("assignments", checks.check_assignments(
            parcels, geo, assign_rows, workloads.DILATION_M))
        self.check("report", checks.check_report(report, checks.recount_metrics(
            assign_rows, pred_rows, parcels, labels)))
        self.check("fusion", checks.check_fusion(models, features, ids, pred_rows))
        self.check("votes", checks.check_votes(assign_rows, pred_rows, map_doc))
        self.check("above chance", checks.check_above_chance(
            report.get("image_accuracy") or 0.0, self.workload.n_classes))
        return {"report": report,
                "counts": checks.assignment_counts(geo, assign_rows)}


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: Run, seconds: float) -> dict:
    """Rounds of one city write and one pass of the six stages, so that
    ``setup_s`` and ``pipeline_s`` are medians over the same stretch of
    time and see the same machine."""
    setup_times = [run.setup()]
    run.one_pass()                                  # warm-up, not timed
    reference = checks.tree_digest(run.out)
    times = []
    start = clock()
    while len(times) < MIN_PASSES or clock() - start < seconds:
        setup_times.append(run.rewrite())
        times.append(run.one_pass())
        run.check("pass byte-identical", checks.check_identical(
            reference, checks.tree_digest(run.out), "pass"))
    rss = run.rss_probe()
    run.check("probe byte-identical", checks.check_identical(
        reference, checks.tree_digest(run.out), "probe"))
    report = run.check_outputs()["report"]
    print(f"perfbench: {len(times)} passes, pipeline "
          + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "pipeline_s": metric(statistics.median(times), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "map_recall": metric(report["mapping"]["recall"], "fraction"),
        "map_f1_micro": metric(report["mapping"]["f1_micro"], "fraction"),
        "image_accuracy": metric(report["image_accuracy"], "fraction"),
    }


# ---------------------------------------------------------------------------
# traced run

#: per-layer metric -> (key of ``spans.layer_totals``, unit)
LAYER_METRICS = {
    **{f"cli.{s}_s": (f"cli.{s}_s", "s") for s in workloads.STAGES},
    "cli.self_s": ("cli.self_s", "s"),
    "cli.manifest_loads": ("dataset.load_calls", "count"),
    "cli.parcel_parses": ("geodata.parse_calls", "count"),
    "geodata.assign_s": ("geodata.assign_s", "s"),
    "geodata.parse_s": ("geodata.parse_s", "s"),
    "geodata.jsonl_s": ("geodata.jsonl_s", "s"),
    "dataset.load_s": ("dataset.load_s", "s"),
    "dataset.sidecar_read_s": ("dataset.sidecar_read_s", "s"),
    "dataset.batches_s": ("dataset.batches_s", "s"),
    "classifier.train_s": ("classifier.train_s", "s"),
    "classifier.loss_grad_s": ("classifier.loss_grad_s", "s"),
    "classifier.loss_grad_calls": ("classifier.loss_grad_calls", "count"),
    "classifier.val_accuracy_s": ("classifier.val_accuracy_s", "s"),
    "classifier.model_io_s": ("classifier.model_io_s", "s"),
    "adaptive.finetune_s": ("adaptive.finetune_s", "s"),
    "fusion_mapping.predict_s": ("fusion_mapping.predict_s", "s"),
    "fusion_mapping.vote_s": ("fusion_mapping.vote_s", "s"),
    "fusion_mapping.export_s": ("fusion_mapping.export_s", "s"),
    "evaluation.metrics_s": ("evaluation.metrics_s", "s"),
    "evaluation.report_s": ("evaluation.report_s", "s"),
}


def kept_fraction(run: Run, threshold: float = 0.5) -> float:
    """Share of training samples the hard gate keeps under the base models:
    p = max(0, 2 - exp(max(y) - mean(y))) < threshold, over both streams."""
    _rows, features = workloads.manifest_features(run.data / "train.jsonl")
    kept = []
    for s in workloads.STREAMS:
        W, b, _ = workloads.read_lusm(run.out / f"model_{s}.lusm")
        z = features[s] @ W.T + b
        e = np.exp(z - z.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        p = np.maximum(0.0, 2.0 - np.exp(y.max(axis=1) - y.mean(axis=1)))
        kept.append(p < threshold)
    return float(np.concatenate(kept).mean())


def kernels(run: Run) -> tuple[dict[str, float], dict[str, str]]:
    """Median single-call times of ``contains``, ``boundary_distance_m`` and
    ``predict_image`` on the workload's own parcels, images and models.
    A kernel the package no longer offers is reported, not fatal."""
    tax = taxonomy.builtin_taxonomy()

    def geo_calls():
        parcels = geodata.parse_parcels(
            (run.data / "parcels.geojson").read_text(encoding="utf-8"), tax)
        rows = workloads.read_jsonl(run.data / "map.jsonl", "id")
        points = [geodata.GeoPoint(r["lon"], r["lat"]) for r in rows]
        return [(parcels[k % len(parcels)], points[(k * 7919) % len(points)])
                for k in range(KERNEL_CALLS)]

    def predict_calls():
        models = {s: classifier.load_model(run.out / f"model_{s}_adapted.lusm")
                  for s in workloads.STREAMS}
        records = dataset.load_manifest(run.data / "map.jsonl", tax)
        weights = fusion_mapping.equal_weights(workloads.STREAMS)
        return [(models, records[k % len(records)], weights)
                for k in range(KERNEL_CALLS)]

    builders = {
        "geodata.contains_us": lambda: (geodata.contains, geo_calls()),
        "geodata.boundary_distance_us":
            lambda: (geodata.boundary_distance_m, geo_calls()),
        "fusion_mapping.predict_image_us":
            lambda: (fusion_mapping.predict_image, predict_calls()),
    }
    out, missing = {}, {}
    for name, build in builders.items():
        try:
            fn, calls = build()
            out[name] = spans.median_call_us(fn, calls)
        except Exception as e:  # noqa: BLE001 - the kernel set may shrink
            missing[name] = f"{type(e).__name__}: {e}"
            out[name] = 0.0
    return out, missing


def traced(run: Run, seconds: float, trace_path: Path) -> dict:
    """Rounds of one plain pass, then one traced city write and traced
    pass; the plain passes give the tracing overhead."""
    run.setup()
    run.one_pass()                                  # warm-up, not timed
    plain, tracers, passes = [], [], []
    start = clock()
    while len(tracers) < MIN_TRACED_PASSES or clock() - start < seconds:
        plain.append(run.one_pass())
        tracer = spans.Tracer()
        tracer.install()
        try:
            run.rewrite(tracer)
            passes.append(run.one_pass(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    found = run.check_outputs()
    totals = [spans.layer_totals(t.spans) for t in tracers]

    def med(key):
        return statistics.median(t.get(key, 0.0) for t in totals)

    metrics = {name: metric(med(key), unit)
               for name, (key, unit) in LAYER_METRICS.items()}
    metrics["dataset.bytes_read_mb"] = metric(med("bytes_read") / MB, "MB")
    metrics["adaptive.kept_fraction"] = metric(kept_fraction(run), "fraction")
    for key, n in found["counts"].items():
        metrics[f"geodata.{key}"] = metric(n, "count")
    make_city = [e - s for t in tracers for name, s, e, *_ in t.spans
                 if name == "synth.make_city"]
    metrics["synth.make_city_s"] = metric(
        statistics.median(make_city) if make_city else 0.0, "s")
    metrics["synth.input_mb"] = metric(run.input_mb, "MB")
    kernel_us, kernel_missing = kernels(run)
    metrics.update({k: metric(v, "us") for k, v in kernel_us.items()})

    pipeline = statistics.median(passes)
    absent = sorted(set(tracers[0].absent) | set(kernel_missing))
    for name in absent:
        print(f"perfbench: absent: {name} {kernel_missing.get(name, '')}",
              file=sys.stderr)
    trace_path.write_text(json.dumps({
        "workload": run.workload.name,
        "seed": run.seed,
        "plain_pipeline_s": plain,
        "traced_pipeline_s": passes,
        "overhead": pipeline / statistics.median(plain) - 1.0,
        "absent": absent,
        "kernel_errors": kernel_missing,
        "shares_of_pipeline": {k: v["value"] / pipeline
                               for k, v in metrics.items()
                               if v["unit"] == "s" and not k.startswith("synth.")},
        "metrics": metrics,
        "span_fields": ["pass", "name", "start", "end", "parent", "bytes"],
        "spans": [[k, *span] for k, t in enumerate(tracers)
                  for span in t.spans],
    }, indent=1) + "\n", encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.run_dir)
    if args.trace:
        metrics = traced(run, args.seconds, args.run_dir / "trace.json")
    else:
        metrics = end_to_end(run, args.seconds)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
