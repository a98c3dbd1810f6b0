"""Spans and counts around graphck's public calls, recorded from outside.

``Tracer.install`` replaces each traced function, in every graphck module
namespace that binds it, with a wrapper that records a span (name,
parent, start, end) and updates counts; ``uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.  Spans stay in memory until
``write`` saves them once, at the end of the run.

A layer's self time is the sum, over its spans, of each span's duration
minus the part of that interval its child spans cover (the union of the
children, since children started from the batch thread pool overlap).
"""

from __future__ import annotations

import contextvars
import gzip
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from . import oracles

_current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's
    context, so spans opened in worker threads know their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _graph_doc(g) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [{"id": b.id, "src": b.src, "dst": b.dst,
                       "cardinality": b.cardinality.encode()} for b in g.bundles]}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, parent span, start, end]
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()     # counts are bumped from pool threads
        self._undo: list[tuple] = []

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _targets(self, lib) -> list[tuple]:
        """(owner, attribute, span name, count hook) for every traced call.
        A span name of None records counts only.  Count hooks run after
        the span closes, so their own cost stays out of every span."""
        c = self.count
        gm, ck, em = lib.graph_model, lib.ck_matrix, lib.exactmat
        return [
            (lib.cli_io, "run_command", "cli_io.command", None),
            (lib.cli_io, "load_graph_file", "cli_io.parse", None),
            (lib.cli_io, "parse_graph_document", "cli_io.parse",
             lambda r, a: c("cli_io.docs_parsed")),
            (gm, "cycles_and_condition_l", "graph_model.route2", None),
            (gm, "cofinal", "graph_model.route2", None),
            (lib.classifier, "_reaching_set", "graph_model.route2", None),
            (gm.StagedGraph, "stage", "graph_model.stage", None),
            (lib.families, "build_graph", None,
             lambda r, a: c("graph_model.stages_materialized")),
            (gm, "enumerate_paths", "graph_model.enumerate_paths",
             lambda r, a: c("graph_model.paths_enumerated", len(r))),
            (lib.ideal_lattice, "enumerate_saturated_hereditary",
             "ideal_lattice.enumerate",
             lambda r, a: (c("ideal_lattice.enumerate_calls"),
                           c("ideal_lattice.lattice_elements", len(r)))),
            (lib.classifier, "is_simple", "classifier.is_simple",
             lambda r, a: c("classifier.is_simple_calls")),
            (lib.classifier, "naimark_verdict", "classifier.verdict", None),
            (lib.classifier, "ladder_length", "classifier.ladder", None),
            (ck, "build_ck_family", "ck_matrix.build",
             lambda r, a: c("ck_matrix.basis_total", r.dim)),
            (ck, "verify_ck", "ck_matrix.verify", None),
            (ck, "gap_projections", "ck_matrix.gaps", None),
            (ck, "algebra_dimension", "ck_matrix.dimension",
             lambda r, a: c("ck_matrix.pairs_formed",
                            oracles.pairs_formed(_graph_doc(a[0].graph)))),
            (ck, "corner", "ck_matrix.corner",
             lambda r, a: c("ck_matrix.pairs_formed",
                            oracles.pairs_formed(_graph_doc(a[0].graph), a[1]))),
            (em, "exact_rank", "exactmat.rank",
             lambda r, a: c("exactmat.rank_vectors", len(a[0]))),
            (em.IntMatrix, "__matmul__", "exactmat.matmul",
             lambda r, a: c("exactmat.products")),
            (lib.bratteli, "corner_chain", "bratteli.chain", None),
            (lib.bratteli, "tail_chain", "bratteli.chain", None),
            (lib.bratteli, "direct_limit_summary", "bratteli.chain", None),
            (lib.bratteli, "embed_check", "bratteli.embed",
             lambda r, a: c("bratteli.units_checked", r.pairs_checked)),
        ]

    def _wrap(self, fn, name, hook, refusal):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, _current.get(), 0.0, 0.0]
            spans.append(rec)
            token = _current.set(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                rec[3] = clock()
                _current.reset(token)
                self.count("ideal_lattice.bound_refusals")
                raise
            except BaseException:
                rec[3] = clock()
                _current.reset(token)
                raise
            rec[3] = clock()
            _current.reset(token)
            if hook is not None:
                hook(result, args)
            return result

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, args)
            return result

        return counted if name is None else traced

    def install(self, lib) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "graphck" or k.startswith("graphck.")]
        refusal = lib.errors.BoundExceededError
        for owner, attr, name, hook in self._targets(lib):
            original = owner.__dict__[attr]
            refuse = refusal if attr == "enumerate_saturated_hereditary" else ()
            wrapper = self._wrap(original, name, hook, refuse)
            # classes, and the stage builders' own binding of build_graph
            # (shared with graph_model, which must stay unwrapped), are
            # patched in place; functions everywhere they are bound
            if isinstance(owner, type) or name is None:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._undo.append((lib.cli_io, "ThreadPoolExecutor",
                           lib.cli_io.ThreadPoolExecutor))
        lib.cli_io.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(id(parent), []).append((start, end))
        out: dict[str, float] = {}
        for rec in self.spans:
            name, _, start, end = rec
            covered, reach = 0.0, start
            for s, e in sorted(children.get(id(rec), ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path) -> None:
        """Save every span as ``id parent name start_us end_us`` lines."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                pid = ids[id(parent)] if parent is not None else -1
                f.write(f"{i}\t{pid}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                        f"{(end - t0) * 1e6:.1f}\n")
