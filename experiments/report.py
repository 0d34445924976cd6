#!/usr/bin/env python3
"""Run one experiment grid through bulksc_batch and print its table.

    python3 experiments/report.py GRID [-j N] [--batch PATH]
                                  [bulksc_batch options...]

GRID is a JSON file in experiments/ (fig9.json, table3.json, ...):

  "base"    registry options, as --dump-config prints them. A list
            value is an axis shared by every block (e.g. the app list).
  "blocks"  cross-product blocks, each {axis: [values, ...]}; the
            grid's points are the union of the blocks' points.
  "table"   "rows": setting names forming the row key;
            "baseline": settings that, merged over a row's key (null
            deletes a key), name the point that `base.` refers to;
            "columns": [{"name", "select", "value", "format",
            "optional"}], where "select" merged over the row key names
            the cell's point exactly, "value" is arithmetic (+ - * /,
            numbers, parentheses) over stat names such as
            `base.exec_time / exec_time`, and an optional column may be
            blank where its point does not exist. Table-level "value"
            and "format" are the columns' defaults. "summary":
            {"label", "op": "splash2-geomean" | "mean"} adds one row
            per group of rows that differ only in the app.

Other options pass straight to bulksc_batch after the grid's base
options, so `--instrs 8000` overrides the base. `--sweep NAME=V1,...`
replaces the grid's NAME axis, or adds NAME to every block and to the
row key when the grid has no such axis. Division by zero gives 0.

Exit status: 0 on success, 1 on a grid, usage or simulation error.
"""

import argparse
import ast
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BATCH = os.path.join(os.path.dirname(HERE), "build", "tools",
                             "bulksc_batch")

# The SPLASH-2 profiles (splash2Profiles() in src/workload); the
# commercial workloads sjbb2k and sweb2005 stay out of the geomean.
SPLASH2 = ("barnes", "cholesky", "fft", "fmm", "lu", "ocean",
           "radiosity", "radix", "raytrace", "water-ns", "water-sp")


class ReportError(Exception):
    """A grid, expression or simulation problem; exit status 1."""


def canon(v):
    """Setting value as compared between grid files and records."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def describe(settings):
    return "{%s}" % ", ".join("%s=%s" % kv for kv in sorted(settings))


# ---------------------------------------------------------------- exprs

_BINOPS = {ast.Add: lambda a, b: a + b,
           ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b,
           ast.Div: lambda a, b: a / b if b != 0 else 0.0}


def _dotted(node):
    """`net.bits.RdWr` -> "net.bits.RdWr"; None if not a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def compile_expr(text):
    """Parse a value expression into a closure over (point, base)."""
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError as e:
        raise ReportError("bad expression %r: %s" % (text, e.msg))

    def build(node):
        name = _dotted(node)
        if name is not None:
            if name.startswith("base."):
                key = name[len("base."):]
                return lambda pt, base: stat(base, key)
            return lambda pt, base: stat(pt, name)
        if (isinstance(node, ast.Constant) and
                type(node.value) in (int, float)):
            return lambda pt, base, v=node.value: v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            lhs, rhs = build(node.left), build(node.right)
            return lambda pt, base: op(lhs(pt, base), rhs(pt, base))
        raise ReportError("expression %r: only stat names, numbers, "
                          "+ - * / and parentheses are allowed" % text)

    return build(tree)


def stat(point, key):
    if point is None:
        raise ReportError("`base.%s` used but the table has no "
                          "baseline point here" % key)
    stats = point["stats"]
    if key not in stats:
        raise ReportError("stat '%s' missing from point %s" %
                          (key, describe(point["key"])))
    v = stats[key]
    return math.nan if v is None else v


# ---------------------------------------------------------------- grid

def plan(grid, sweeps):
    """The grid's base flags, its blocks as bulksc_batch axis lists,
    and the effective row key, after applying --sweep overrides."""
    flags, shared = [], []
    for k, v in grid["base"].items():
        if isinstance(v, list):
            shared.append((k, v))
        elif isinstance(v, bool):
            flags.append("--%s%s" % ("" if v else "no-", k))
        else:
            flags += ["--" + k, str(v)]
    blocks = [shared + list(b.items()) for b in grid["blocks"]]
    rows = list(grid["table"]["rows"])
    for name, values in sweeps:
        known = any(n == name for b in blocks for n, _ in b)
        for b in blocks:
            if known:
                b[:] = [(n, values if n == name else v) for n, v in b]
            else:
                b.append((name, values))
        if not known:
            rows.append(name)
    return flags, blocks, rows


def run_blocks(batch, flags, blocks, extra, jobs):
    """Run every block through bulksc_batch; all records in order."""
    records = []
    for axes in blocks:
        cmd = [batch] + flags + extra + ["-j", str(jobs)]
        for name, values in axes:
            cmd += ["--sweep", "%s=%s" % (name, ",".join(
                canon(v) for v in values))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              universal_newlines=True)
        records += parse_records(proc.stdout.splitlines())
        if proc.returncode != 0:
            raise ReportError("bulksc_batch failed: " +
                              proc.stderr.strip())
    return records


def parse_records(lines):
    """bulksc_batch JSONL lines -> records keyed by their settings."""
    records = []
    for line in lines:
        rec = json.loads(line)
        rec["key"] = frozenset((k, canon(v)) for k, v in
                               rec["settings"].items())
        if "error" in rec:
            raise ReportError("point %s failed: %s" %
                              (describe(rec["key"]), rec["error"]))
        if not rec["completed"] or rec["watchdog"] != "none":
            raise ReportError("point %s did not complete (watchdog: %s)"
                              % (describe(rec["key"]), rec["watchdog"]))
        records.append(rec)
    return records


# ---------------------------------------------------------------- table

def merge(row, over):
    """Row key settings overridden by @p over (None deletes a key)."""
    out = dict(row)
    for k, v in over.items():
        if v is None:
            out.pop(k, None)
        else:
            out[k] = canon(v)
    return frozenset(out.items())


def reduce_table(table, records, rows_key=None):
    """Reduce records to (columns, body rows, summary rows).

    Body and summary rows are (row key values, cells) with one cell per
    column: a float, or None where an optional column has no point.
    """
    rows_key = rows_key or table["rows"]
    columns = []
    for c in table["columns"]:
        columns.append({
            "name": c["name"],
            "select": {k: canon(v) for k, v in c.get("select",
                                                     {}).items()},
            "value": compile_expr(c.get("value", table.get("value"))),
            "format": c.get("format", table.get("format", "%.3f")),
            "optional": c.get("optional", False)})
    baseline = table.get("baseline")

    by_key = {}
    first_seen = {k: {} for k in rows_key}
    rows = {}
    for rec in records:
        by_key.setdefault(rec["key"], rec)
        settings = dict(rec["key"])
        row = tuple(settings.get(k) for k in rows_key)
        for k, v in zip(rows_key, row):
            first_seen[k].setdefault(v, len(first_seen[k]))
        rest = {k: v for k, v in settings.items() if k not in rows_key}
        if any(rest == c["select"] for c in columns):
            rows.setdefault(row, len(rows))
    order = sorted(rows, key=lambda r: tuple(
        first_seen[k][v] for k, v in zip(rows_key, r)))

    body = []
    for row in order:
        rk = {k: v for k, v in zip(rows_key, row) if v is not None}
        base = None
        if baseline is not None:
            base = by_key.get(merge(rk, baseline))
            if base is None:
                raise ReportError("no baseline point %s" %
                                  describe(merge(rk, baseline)))
        cells = []
        for c in columns:
            pt = by_key.get(merge(rk, c["select"]))
            if pt is None:
                if not c["optional"]:
                    raise ReportError(
                        "no point %s for column '%s'" %
                        (describe(merge(rk, c["select"])), c["name"]))
                cells.append(None)
                continue
            cells.append(float(c["value"](pt, base)))
        body.append((row, cells))

    summary = []
    spec = table.get("summary")
    if spec:
        summary = summarize(spec, rows_key, body, len(columns))
    return columns, body, summary


def summarize(spec, rows_key, body, ncols):
    """One summary row per group of body rows differing only in app."""
    if "app" not in rows_key:
        raise ReportError("a summary row needs 'app' in the row key")
    op = SUMMARY_OPS.get(spec["op"])
    if op is None:
        raise ReportError("unknown summary op '%s'" % spec["op"])
    app = rows_key.index("app")
    groups = {}
    for row, cells in body:
        label = row[:app] + (spec["label"],) + row[app + 1:]
        groups.setdefault(label, []).append((row[app], cells))
    return [(label, [op([(a, cells[c]) for a, cells in members
                         if cells[c] is not None])
                     for c in range(ncols)])
            for label, members in groups.items()]


def splash2_geomean(pairs):
    """Geomean over the positive SPLASH-2 cells, 0 when there are none."""
    vals = [v for app, v in pairs if app in SPLASH2 and v > 0]
    if not vals:
        return 0.0
    return math.exp(sum_in_order(math.log(v) for v in vals) / len(vals))


def mean(pairs):
    if not pairs:
        return None
    return sum_in_order(v for _, v in pairs) / len(pairs)


def sum_in_order(vals):
    # Left to right, like the C++ loops the paper tables came from
    # (math.fsum would round differently).
    acc = 0.0
    for v in vals:
        acc += v
    return acc


SUMMARY_OPS = {"splash2-geomean": splash2_geomean, "mean": mean}


def render(title, rows_key, columns, body, summary, note=None):
    """The fixed-width table: key columns left, value columns right."""
    header = list(rows_key) + [c["name"] for c in columns]
    lines = []
    for row, cells in body + summary:
        keys = ["" if v is None else v for v in row]
        vals = ["" if v is None else c["format"] % v
                for c, v in zip(columns, cells)]
        lines.append(keys + vals)
    widths = [max(len(r[i]) for r in [header] + lines)
              for i in range(len(header))]
    nk = len(rows_key)

    def fmt(r):
        return "  ".join(s.ljust(w) if i < nk else s.rjust(w)
                         for i, (s, w) in enumerate(zip(r, widths)))

    out = ["=== %s ===" % title, fmt(header)]
    out += [fmt(r).rstrip() for r in lines[:len(body)]]
    if summary:
        out.append("")
        out += [fmt(r).rstrip() for r in lines[len(body):]]
    if note:
        out += ["", note]
    return "\n".join(out)


def report(grid_path, batch, jobs, extra):
    """Run @p grid_path and return (rows_key, columns, body, summary,
    text)."""
    with open(grid_path) as f:
        grid = json.load(f)
    sp = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    sp.add_argument("--sweep", action="append", default=[])
    opts, rest = sp.parse_known_args(extra)
    sweeps = [(name, values.split(",")) for name, _, values in
              (spec.partition("=") for spec in opts.sweep)]
    flags, blocks, rows_key = plan(grid, sweeps)
    records = run_blocks(batch, flags, blocks, rest, jobs)
    columns, body, summary = reduce_table(grid["table"], records,
                                          rows_key)
    text = render(grid.get("title", os.path.basename(grid_path)),
                  rows_key, columns, body, summary, grid.get("note"))
    return rows_key, columns, body, summary, text


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0], allow_abbrev=False,
        usage="%(prog)s GRID [-j N] [--batch PATH] "
              "[bulksc_batch options...]")
    ap.add_argument("grid")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="bulksc_batch worker threads per block")
    ap.add_argument("--batch", default=DEFAULT_BATCH,
                    help="bulksc_batch binary (default: %(default)s)")
    args, extra = ap.parse_known_args(argv)
    try:
        text = report(args.grid, args.batch, args.jobs, extra)[-1]
    except KeyError as e:
        print("report.py: grid file lacks %s" % e, file=sys.stderr)
        return 1
    except (ReportError, OSError, ValueError) as e:
        print("report.py: %s" % e, file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
