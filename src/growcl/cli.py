"""Command-line front end: run experiments, replay decision traces, compare reports.

    growcl run --config exp.cfg [--mode lw2g] [--seed 7] [--out DIR]
    growcl replay --replay trace.jsonl
    growcl compare report_a.json report_b.json

Exit codes: 0 success, 1 config error, 2 runtime error. ``main`` alone maps
a failure to its code and one stderr line: a ``ConfigError`` (an unreadable or
invalid config, or a rejected ``--mode``/``--seed`` override) exits 1 as
``config error: ...``, any other exception exits 2 as ``runtime error: ...``.
``replay`` prefixes a trace it cannot parse or replay with ``malformed
trace:``, ``compare`` a report it cannot read with ``bad report PATH:``.

``run`` writes report.json, metrics.csv, trace.jsonl, snapshot.bin and
manifest.json into the output directory; report.json and trace.jsonl are
byte-stable for a fixed config and seed (timestamps live only in
manifest.json).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from growcl.config import ConfigError, load_config
from growcl.decisions import GrowDecision, HindranceRecord, decide
from growcl.metrics import faa, ffm, per_task_summary, pra, ssp, write_csv
from growcl.stream import generate
from growcl.subspace import HfcValue
from growcl import snapshot
from growcl.trainer import MODES, run_stream

SCHEMA_VERSION = 1
COMPARED = ("faa", "pra", "ffm", "ssp")  # report metrics that ``compare`` diffs


def _json_line(obj) -> str:
    """``obj`` as one line of strict JSON: a NaN or an infinity raises ``ValueError``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def build_report(spec, enc_cfg, train_cfg, engine) -> dict:
    m = engine.matrix
    pool = engine.pool
    return {
        "schema": SCHEMA_VERSION,
        "config": {name: dataclasses.asdict(obj) for name, obj in
                   (("stream", spec), ("encoder", enc_cfg), ("train", train_cfg))},
        "metrics": {
            "faa": round(faa(m), 12),
            "ffm": round(ffm(m), 12) if m.n_tasks > 1 else None,
            "pra": round(pra(m), 12),
            "ssp": ssp(pool),
            "faa_oracle": round(faa(m, oracle=True), 12),
            "per_task": per_task_summary(m),
        },
        "assignments": {str(sid): tasks for sid, tasks in sorted(pool.assignments.items())},
        "decisions": [r.decision.describe() for r in engine.reports],
    }


def cmd_run(args):
    started = datetime.now(timezone.utc).isoformat()
    text, (spec, enc_cfg, train_cfg) = load_config(args.config)
    try:
        if args.mode:
            train_cfg = dataclasses.replace(train_cfg, mode=args.mode)
        if args.seed is not None:
            train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datasets = generate(spec)
    engine = run_stream(enc_cfg, train_cfg, datasets)
    report = build_report(spec, enc_cfg, train_cfg, engine)
    (out / "report.json").write_text(_json_line(report) + "\n")
    with open(out / "trace.jsonl", "w") as fh:
        for r in engine.reports:
            fh.write(_json_line(r.trace) + "\n")
    write_csv(engine.matrix, out / "metrics.csv")
    snapshot.save(out / "snapshot.bin", engine)
    manifest = {
        "config_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "config": report["config"],
        "outputs": {name: str(out / name) for name in
                    ("report.json", "trace.jsonl", "metrics.csv", "snapshot.bin")},
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"run complete: faa={report['metrics']['faa']:.4f} "
          f"pra={report['metrics']['pra']:.4f} ssp={report['metrics']['ssp']} -> {out}")


def _json_number(value, what: str, types=(int, float)):
    """``value`` when it is one of ``types`` (an integer or any number) and
    not a ``bool``: JSON's ``true`` and ``false`` parse to Python's ``bool``,
    which is an ``int``. Raises ``ValueError`` naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, types):
        kind = "an integer" if types is int else "a number"
        raise ValueError(f"{what} is {value!r}, not {kind}")
    return value


def replay_rows(rows):
    """Re-run the grow-or-reuse rule over recorded hindrance pairs.

    Each row: {"task": t, "records": [{"set": id, "hfc_old_deg": x,
    "hfc_pre_deg": y}, ...]}; a row without records grows unconditionally.
    ``task`` and ``set`` are integers, ``task`` increases from row to row,
    both angles are numbers, and a row lists each set at most once; anything
    else raises ``ValueError``.
    Set ids in the output follow the ids used in the rows: the first grown
    set takes the smallest id referenced anywhere in the trace (so 1-based
    published traces and 0-based engine traces both replay faithfully) and
    each later grow takes the next integer.
    """
    last = None
    for row in rows:
        records = row.get("records", []) if isinstance(row, dict) else None
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise ValueError(f"row is not an object with a list of record objects: {row!r}")
        task = _json_number(row.get("task"), "task", int)
        if last is not None and task <= last:
            raise ValueError(f"task {task} follows task {last}: task values must increase")
        last = task
        seen = set()
        for r in records:
            sid = _json_number(r.get("set"), f"task {task}: set", int)
            for key in ("hfc_old_deg", "hfc_pre_deg"):
                _json_number(r.get(key), f"task {task}, set {sid}: {key}")
            if sid in seen:
                raise ValueError(f"task {task} lists set {sid} twice")
            seen.add(sid)
    assignments = {}
    decisions = []
    referenced = [r["set"] for row in rows for r in row.get("records", [])]
    next_id = min(referenced, default=0)
    for row in rows:
        task = row["task"]
        records = [
            HindranceRecord(
                r["set"],
                HfcValue.from_degrees(r["hfc_old_deg"]),
                HfcValue.from_degrees(r["hfc_pre_deg"]),
            )
            for r in row.get("records", [])
        ]
        # no records: the first task's unconditional grow, as Engine._decide builds it
        decision = decide(records) if records else GrowDecision(None, ())
        if decision.is_grow:
            sid = next_id
            next_id += 1
        else:
            sid = decision.reuse_id
            if sid not in assignments:
                raise ValueError(f"trace reuses unknown set {sid} at task {task}")
        assignments.setdefault(sid, []).append(task)
        decisions.append({"task": task, "decision": decision.describe(), "set": sid,
                          "z": [round(r.z_degrees, 6) for r in records]})
    return decisions, assignments


def cmd_replay(args):
    with open(args.replay, encoding="utf-8") as fh:
        try:
            rows = [json.loads(line) for line in fh if line.strip()]
            decisions, assignments = replay_rows(rows)
        except Exception as exc:
            raise ValueError(f"malformed trace: {exc}") from exc
    for d in decisions:
        print(f"task {d['task']}: {d['decision']}")
    summary = {
        "decisions": [d["decision"] for d in decisions],
        "assignments": {str(k): v for k, v in sorted(assignments.items())},
        "ssp": len(assignments),
    }
    print(_json_line(summary))


def _report_metrics(path) -> dict:
    """The ``metrics`` object of the UTF-8 report at ``path``; raises when the
    file is not JSON, or not an object holding a ``metrics`` object whose
    compared values are null or numbers that convert to a finite float
    (``json`` parses ``NaN`` and ``Infinity``, which no report holds)."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    metrics = report.get("metrics") if isinstance(report, dict) else None
    if not isinstance(metrics, dict):
        raise ValueError('not an object with a "metrics" object')
    for key in COMPARED:
        value = metrics.get(key)
        if value is None:
            continue
        # an integer past the float range raises OverflowError
        if not math.isfinite(_json_number(value, f"metric {key!r}")):
            raise ValueError(f"metric {key!r} is {value!r}, not finite")
    return metrics


def cmd_compare(args):
    metrics = []
    for path in (args.report_a, args.report_b):
        try:
            metrics.append(_report_metrics(path))
        except Exception as exc:
            raise ValueError(f"bad report {path}: {exc}") from exc
    a, b = metrics
    diff = {}
    for key in COMPARED:
        va, vb = a.get(key), b.get(key)
        diff[f"delta_{key}"] = None if va is None or vb is None else round(vb - va, 12)
    # built first: a delta past the float range raises before anything prints
    line = _json_line(diff)
    for key in COMPARED:
        print(f"{key:4s}: a={a.get(key)} b={b.get(key)} delta={diff[f'delta_{key}']}")
    print(line)


def _one_line(exc: Exception) -> str:
    """``exc``'s message with its line breaks folded into spaces:
    ``configparser`` puts the offending line on a line of its own."""
    return " ".join(line.strip() for line in str(exc).splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="growcl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument("--mode", choices=MODES, help="override [train] mode")
    p_run.add_argument("--seed", type=int, help="override [train] seed")
    p_run.add_argument("--out", default="run_out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="replay decisions from a hindrance trace")
    p_replay.add_argument("--replay", required=True, help="path to a trace .jsonl file")
    p_replay.set_defaults(func=cmd_replay)

    p_cmp = sub.add_parser("compare", help="diff the metrics of two reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - every other failure exits 2
        print(f"runtime error: {_one_line(exc)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
