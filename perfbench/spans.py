"""Layer tracing from outside the library.

A :class:`Tracer` replaces the library's public callables, in the module or
class where the library looks them up, by wrappers that record one span per
call: name, start, end and the enclosing span.  Spans live in flat arrays in
memory and are reduced to per-callable calls, total and self time only when
the traced solution has ended.  Self time is a span's duration minus the
durations of its direct children, so the self times of all spans plus the
unattributed remainder add up to the traced wall time.

Work counts that no span gives (PRM cells, renewal cycles and candidates)
are gathered by the same wrappers from the arguments and results of the
calls they already see.
"""

import collections
import math
import time
from array import array

import numpy as np

import hawkes_renewal as hr
from hawkes_renewal import hawkes, kernels, prm, quadrature, renewal, stats

from workloads import block_counts

LAYERS = ("kernels", "quadrature", "renewal", "prm", "hawkes", "stats")

# (span name, owner objects that look the callable up, attribute)
SPANS = [
    ("kernels.EnvelopeFns.f", [kernels.EnvelopeFns], "f"),
    ("kernels.EnvelopeFns.F", [kernels.EnvelopeFns], "F"),
    ("kernels.EnvelopeFns.F_l1", [kernels.EnvelopeFns], "F_l1"),
    ("kernels.EnvelopeFns.cum_F", [kernels.EnvelopeFns], "cum_F"),
    ("kernels.EnvelopeFns.inv_cum", [kernels.EnvelopeFns], "inv_cum"),
    ("kernels.EnvelopeFns.t_cut", [kernels.EnvelopeFns], "t_cut"),
    ("kernels.EnvelopeFns.tail_mass", [kernels.EnvelopeFns], "tail_mass"),
    ("quadrature.integrate", [kernels, quadrature], "integrate"),
    ("quadrature.integrate_to_inf", [kernels], "integrate_to_inf"),
    ("renewal.run_system", [renewal], "run_system"),
    ("renewal.check_envelope_inequality", [renewal], "check_envelope_inequality"),
    ("renewal.certify_dominated", [renewal], "certify_dominated"),
    ("renewal.scan_alpha_AD", [renewal], "scan_alpha_AD"),
    ("renewal.scan_alpha_O", [renewal], "scan_alpha_O"),
    ("prm.PrmStream.sample", [prm.PrmStream], "sample"),
    ("hawkes.ProcessState.lambda_at", [hawkes.ProcessState], "lambda_at"),
    ("hawkes.ProcessState.bound_from", [hawkes.ProcessState], "bound_from"),
    ("stats.clt_time_average", [hr, stats], "clt_time_average"),
    ("stats.functional_clt_paths", [hr, stats], "functional_clt_paths"),
    ("stats.block_stat_from_blocks", [stats], "block_stat_from_blocks"),
    ("stats.unit_counts", [stats], "unit_counts"),
    ("stats.iterate_regenerations", [hr, stats], "iterate_regenerations"),
]
SPAN_NAMES = [name for name, _, _ in SPANS]

# hawkes callables are also reported per enclosing span: the engine sweep
# runs directly under run_system, the alpha scans under their scan span
BY_PARENT = ("hawkes.ProcessState.lambda_at", "hawkes.ProcessState.bound_from")
PARENTS = ("renewal.run_system", "renewal.scan_alpha_AD", "renewal.scan_alpha_O")

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("prm.cells", "prm.cell_lookups", "renewal.cycles",
                "renewal.candidates", "kernels.EnvelopeFns.f.calls",
                "quadrature.integrate.calls")


class Tracer:
    """Span recorder that patches the library while it is installed."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._patches = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = collections.Counter()

    def reset(self):
        """Drop recorded spans and counts; the installed wrappers keep
        writing into the same containers."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        del self._stack[1:]
        self.counts.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self._ids[name]
        name_id, parent, start, end, stack = (self.name_id, self.parent,
                                              self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _sample_hook(self, fn):
        """PrmStream.sample: count unit cells looked up (time columns x mark
        layers, as the sampler addresses them)."""
        counts = self.counts

        def sample(stream, t0, t1, zmax):
            if 0 < zmax < math.inf and t1 > t0:
                cols = math.ceil(t1) - math.floor(t0)
                counts["prm.cell_lookups"] += cols * math.ceil(zmax)
            return fn(stream, t0, t1, zmax)

        return sample

    def _derive_key_hook(self, fn):
        """prm.derive_key: a call made inside PrmStream.sample materialises
        one new cell."""
        counts = self.counts
        stack, name_id = self._stack, self.name_id
        sample_id = self._ids["prm.PrmStream.sample"]

        def derive_key(*parts):
            top = stack[-1]
            if top >= 0 and name_id[top] == sample_id:
                counts["prm.cells"] += 1
            return fn(*parts)

        return derive_key

    def _blocks_hook(self, fn):
        """iterate_regenerations: sum the renewal counts of every block list
        it returns, passing its own collect_diag when the caller has none."""
        counts = self.counts

        def iterate_regenerations(*args, collect_diag=None, **kwargs):
            diag = collect_diag if collect_diag is not None else {}
            blocks = fn(*args, collect_diag=diag, **kwargs)
            for key, value in block_counts(blocks, diag).items():
                counts["renewal." + key] += value
            return blocks

        return iterate_regenerations

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._set(prm, "derive_key", self._derive_key_hook(prm.derive_key))
        hooks = {"prm.PrmStream.sample": self._sample_hook,
                 "stats.iterate_regenerations": self._blocks_hook}
        for name, owners, attr in SPANS:
            for owner in owners:
                orig = owner.__dict__[attr]
                if isinstance(orig, property):
                    self._set(owner, attr, property(self._wrap(name, orig.fget)))
                    continue
                hook = hooks.get(name)
                fn = hook(orig) if hook else orig
                self._set(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction -------------------------------------------------------------

    def summary(self, wall_s):
        """Per-callable calls, total and self time, layer shares and counts."""
        n_names = len(SPAN_NAMES)
        ids, par, start, end = self._arrays()
        dur = end - start
        child = np.bincount(par[par >= 0], weights=dur[par >= 0], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        selfs = np.bincount(ids, weights=self_t, minlength=n_names)

        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[name + ".calls"] = (int(calls[i]), "count")
            out[name + ".total_s"] = (float(total[i]), "s")
            out[name + ".self_s"] = (float(selfs[i]), "s")
        for name in BY_PARENT:
            mine = ids == self._ids[name]
            for pname in PARENTS:
                under = mine & (par >= 0)
                under[under] = ids[par[under]] == self._ids[pname]
                key = f"{name}.in.{pname}"
                out[key + ".calls"] = (int(under.sum()), "count")
                out[key + ".total_s"] = (float(dur[under].sum()), "s")

        attributed = 0.0
        for layer in LAYERS:
            s = sum(out[n + ".self_s"][0] for n in SPAN_NAMES
                    if n.startswith(layer + "."))
            attributed += s
            out[f"layer.{layer}.self_s"] = (s, "s")
            out[f"layer.{layer}.share"] = (s / wall_s, "fraction")
        rest = wall_s - attributed
        out["layer.unattributed.self_s"] = (rest, "s")
        out["layer.unattributed.share"] = (rest / wall_s, "fraction")

        c = self.counts
        for key in ("cycles", "candidates", "tau_tail_draws"):
            out["renewal." + key] = (c["renewal." + key], "count")
        # alpha gaps are lengths of model time
        out["renewal.scan_units"] = (c["renewal.scan_units"], "time")
        cand = c["renewal.candidates"]
        out["renewal.accept_ratio"] = (
            c["renewal.events"] / cand if cand else 0.0, "fraction")
        lookups = c["prm.cell_lookups"]
        out["prm.cell_lookups"] = (lookups, "count")
        out["prm.cells"] = (c["prm.cells"], "count")
        out["prm.cell_reuse_ratio"] = (
            1.0 - c["prm.cells"] / lookups if lookups else 0.0, "fraction")
        return out

    def _arrays(self):
        """Copies of (name id, parent, start, end) as numpy arrays."""
        return tuple(np.array(a, dtype=np.int32 if a.typecode == "i" else float)
                     for a in (self.name_id, self.parent, self.start, self.end))

    def save(self, path):
        """Write the raw spans (name table, name id, parent, start, end)."""
        ids, par, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name_id=ids,
                            parent=par, start=start, end=end)
