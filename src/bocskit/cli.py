"""Command-line surface over the verification pipeline.

Every command reads and writes the JSON documents from the io module.
Text output is a flattened key/value rendering of the same document, so
both formats carry identical verdicts.  Commands exit nonzero with a
machine-readable error object whenever a check fails.
"""

from __future__ import annotations

import json
import sys

import click

from . import io as bio
from .bocs import construct_bocs
from .pipeline import PipelineError, roundtrip_bocs, run_pipeline
from .quiver import (example_a2, example_dual_numbers, example_jordan3,
                     example_semisimple_pair)
from .strata import classify_algebra

FIXTURES = {
    "e0": (example_semisimple_pair, [1, 2]),
    "e1": (example_dual_numbers, [1]),
    "e2": (example_a2, [1, 2]),
    "e3": (example_jordan3, [1]),
}


def _flatten(doc, prefix=""):
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            lines.extend(_flatten(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, list):
        for k, item in enumerate(doc):
            lines.extend(_flatten(item, f"{prefix}{k}."))
    else:
        lines.append(f"{prefix[:-1]}: {json.dumps(doc)}")
    return lines


def _write(ctx, doc):
    fmt = ctx.obj["format"]
    text = bio.emit(doc) if fmt == "json" else \
        "\n".join(_flatten(doc)) + "\n"
    out = ctx.obj["out"]
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail(ctx, err, stage="input"):
    """Print the error object of err on stderr and exit 1; an error that
    is not a PipelineError is attributed to the given stage."""
    if isinstance(err, PipelineError):
        obj = err.error_object()
    else:
        obj = {"error": str(err), "stage": stage}
    click.echo(json.dumps(obj, sort_keys=True), err=True)
    ctx.exit(1)


def _load(ctx, path, kind, what):
    """The built object of the document at path, which must be a kind
    document; any failure exits through _fail at stage "input"."""
    try:
        parsed = bio.parse(path)
        if not isinstance(parsed, kind):
            raise ValueError(f"expected {what}")
        return parsed.build()
    except ValueError as e:
        _fail(ctx, e)


@click.group()
@click.option("--out", type=click.Path(), default=None,
              help="Write output to this path instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", help="Output format.")
@click.pass_context
def main(ctx, out, fmt):
    """Exact-arithmetic toolkit for stratified algebras and bocses."""
    ctx.ensure_object(dict)
    ctx.obj.update(out=out, format=fmt)


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.pass_context
def classify(ctx, source):
    """Classify an algebra document against its vertex order."""
    alg, order = _load(ctx, source, bio.AlgebraDocument,
                       "an algebra document")
    try:
        cls = classify_algebra(alg, order)
    except ValueError as e:
        _fail(ctx, e)
    _write(ctx, {"schema": "bocskit/classification", "version": bio.VERSION,
                 "label": cls.label, "order": list(cls.order),
                 "dim": alg.dim})


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["delta", "pdelta"]),
              default="pdelta")
@click.option("--rmax", type=click.IntRange(min=2), default=5)
@click.pass_context
def bocs(ctx, source, mode, rmax):
    """Construct the bocs of an algebra document and emit it."""
    alg, order = _load(ctx, source, bio.AlgebraDocument,
                       "an algebra document")
    try:
        b = construct_bocs(alg, order, mode=mode, r_max=rmax)
        doc = bio.bocs_to_doc(b)
    except (ValueError, AssertionError) as e:
        _fail(ctx, e, stage="construct_bocs")
    _write(ctx, doc)


@main.command("burt-butler")
@click.argument("source", type=click.Path(exists=True))
@click.pass_context
def burt_butler(ctx, source):
    """Build the right algebra of a bocs document and verify it."""
    b = _load(ctx, source, bio.BocsDocument, "a bocs document")
    try:
        report = roundtrip_bocs(b)
    except ValueError as e:
        _fail(ctx, e, stage="pipeline")
    _write(ctx, report.doc)


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["delta", "pdelta"]),
              default="pdelta")
@click.option("--rmax", type=click.IntRange(min=2), default=5)
@click.pass_context
def verify(ctx, source, mode, rmax):
    """Run the full verification pipeline on an algebra document."""
    alg, order = _load(ctx, source, bio.AlgebraDocument,
                       "an algebra document")
    try:
        report = run_pipeline(alg, order, mode=mode,
                              config={"r_max": rmax})
    except ValueError as e:
        # a PipelineError names its stage; any other error was raised
        # inside run_pipeline but outside its stage runner
        _fail(ctx, e, stage="pipeline")
    _write(ctx, report.doc)


@main.command()
@click.option("--dir", "target", type=click.Path(), default="fixtures")
@click.pass_context
def fixtures(ctx, target):
    """Write the bundled example algebras e0 to e3 as documents."""
    import os
    os.makedirs(target, exist_ok=True)
    written = []
    for name, (build, order) in sorted(FIXTURES.items()):
        doc = bio.algebra_to_doc(build(), order)
        path = os.path.join(target, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bio.emit(doc))
        written.append(path)
    _write(ctx, {"schema": "bocskit/fixtures", "version": bio.VERSION,
                 "written": written})


if __name__ == "__main__":
    sys.exit(main())
