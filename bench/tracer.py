"""Spans around the layer boundaries of vasslab, for the traced run.

`Tracer.install()` replaces each public function named in `SPANS` by a
wrapper, in every vasslab module namespace that holds a binding of it (so
`chareq.lp_max` and `decomposition.lp_max` both reach the wrapped `lp_opt`,
and `approx_member` reaches the wrapped `semilinear.run_word`). `Nfa.step` and
`Nfa.eps_closure` are wrapped on the class and only counted, because they run
millions of times. Leaf helpers (`values`, `letter_index`, ...) are not
wrapped for the same reason.

Spans are kept in memory and written out by `write()`. Counts that describe
results (words found, members, refine cases, ILP feasibility, product states)
are taken from the returned values.
"""

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) -> (span name, driver stage or None)
# A stage opens only directly inside `cmd_separate`, when no stage is open:
# that is how `driver.*.s` times the calls `cmd_separate` makes, by stage.
SPANS = {
    ("solver", "lp_opt"): ("solver.lp", None),
    ("solver", "lp_point"): ("solver.lp", None),
    ("solver", "lp_feasible"): ("solver.lp", None),
    ("solver", "ilp_feasible"): ("solver.ilp", None),
    ("solver", "enumerate_var_values"): ("solver.enumerate_var_values", None),
    ("chareq", "build_char"): ("chareq.build_char", None),
    ("chareq", "support"): ("chareq.support", None),
    ("structure", "covering_sequences"): ("structure.covering", None),
    ("structure", "down_covering"): ("structure.covering", None),
    ("mgts", "perfectness_diagnosis"): ("mgts.perfectness_diagnosis", None),
    ("mgts", "side_language_bounded"): ("mgts.side_language", None),
    ("decomposition", "decompose"): ("decomposition.decompose", "decompose"),
    ("decomposition", "refine"): ("decomposition.refine", None),
    ("decomposition", "observer_product"): ("decomposition.observer_product", None),
    ("decomposition", "dec_along"): ("decomposition.dec_along", None),
    ("zsep", "z_separability"): ("zsep.z_separability", "zsep"),
    ("separator", "lift_separator"): ("separator.lift_separator", "zsep"),
    ("separator", "lambert_pump"): ("separator.lambert_pump", "intersection"),
    ("model", "language_bounded"): ("model.language_bounded", "verify"),
    ("automata", "run_word"): ("automata.run_word", "verify"),
    ("automata", "enumerate_words"): ("automata.enumerate_words", None),
    ("semilinear", "approx_automaton"): ("semilinear.approx_automaton", None),
    ("semilinear", "lin_member"): ("semilinear.lin_member", None),
    ("semilinear", "basic_member"): ("semilinear.basic_member", None),
    ("semilinear", "nfa_to_linear_cover"): ("semilinear.nfa_to_linear_cover", None),
    ("semilinear", "make_basic_separator"): ("semilinear.make_basic_separator", None),
    ("driver", "cmd_separate"): ("driver.cmd_separate", None),
    ("driver", "_bfs_or_inconclusive"): ("driver.bfs", "intersection"),
    ("driver", "reach_decide"): ("driver.reach_decide", "intersection"),
    ("driver", "dyck_words"): ("driver.dyck_words", "verify"),
}
COUNTED_METHODS = {"step": "automata.step", "eps_closure": "automata.eps_closure"}
STAGES = ("intersection", "decompose", "zsep", "verify")


def _count_result(counts, name, result):
    if name == "solver.ilp":
        counts["solver.ilp.feasible"] += result is not None
    elif name == "mgts.side_language":
        counts["mgts.side_language.words"] += len(result.words)
        counts["mgts.side_language.truncated"] += bool(result.truncated)
    elif name == "model.language_bounded":
        counts["model.language_bounded.words"] += len(result)
    elif name == "decomposition.observer_product":
        counts["decomposition.observer_product.states"] += len(result.states)
    elif name == "decomposition.decompose":
        counts["decomposition.members"] += len(result.perfect) + len(result.decided)
        for entry in result.trace:
            case = entry["case"].split("-")[0]
            if case in ("i", "ii", "iii"):
                counts[f"decomposition.refine.case_{case}"] += 1


class Tracer:
    def __init__(self):
        self.spans = []        # [name, parent index, start, end]
        self.stack = []        # [span index, time covered by child spans]
        self.calls = Counter()
        self.inclusive = Counter()   # outermost spans of a name only
        self.self_time = Counter()
        self.depth = Counter()
        self.counts = Counter()
        self.stage_time = Counter()
        self.stage = None
        self.separating = 0
        self.last_error = None

    def _wrap(self, f, name, stage, exhausted):
        tracer = self

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            opens = stage is not None and tracer.separating and tracer.stage is None
            if opens:
                tracer.stage = stage
            is_separate = name == "driver.cmd_separate"
            tracer.separating += is_separate
            index = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer.stack.append(frame)
            tracer.depth[name] += 1
            start = perf_counter()
            try:
                result = f(*args, **kwargs)
            except exhausted as exc:
                if exc is not tracer.last_error:
                    tracer.last_error = exc
                    tracer.counts["errors.resource_exhausted"] += 1
                raise
            finally:
                end = perf_counter()
                duration = end - start
                tracer.stack.pop()
                tracer.depth[name] -= 1
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                if tracer.depth[name] == 0:
                    tracer.inclusive[name] += duration
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.spans[index] = (name, parent, start, end)
                tracer.separating -= is_separate
                if opens:
                    tracer.stage = None
                    tracer.stage_time[stage] += duration
            _count_result(tracer.counts, name, result)
            return result

        return wrapper

    def _counter(self, f, name):
        counts = self.counts

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    def install(self):
        from vasslab import automata, errors

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "vasslab" or key.startswith("vasslab."))]
        for (mod, fname), (name, stage) in SPANS.items():
            original = getattr(sys.modules[f"vasslab.{mod}"], fname)
            wrapped = self._wrap(original, name, stage, errors.ResourceExhausted)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
        for method, name in COUNTED_METHODS.items():
            setattr(automata.Nfa, method, self._counter(getattr(automata.Nfa, method), name))

    def metrics(self):
        """The per-layer figures of one traced round."""
        c, s, own, n = self.calls, self.inclusive, self.self_time, self.counts
        ilp = c["solver.ilp"]
        out = {
            "solver.lp.calls": c["solver.lp"],
            "solver.lp.self_s": own["solver.lp"],
            "solver.ilp.calls": ilp,
            "solver.ilp.self_s": own["solver.ilp"],
            "solver.ilp.feasible_ratio": n["solver.ilp.feasible"] / ilp if ilp else 0.0,
            "solver.enumerate_var_values.calls": c["solver.enumerate_var_values"],
            "solver.enumerate_var_values.s": s["solver.enumerate_var_values"],
            "chareq.build_char.calls": c["chareq.build_char"],
            "chareq.support.calls": c["chareq.support"],
            "chareq.support.s": s["chareq.support"],
            "structure.covering.calls": c["structure.covering"],
            "structure.covering.s": s["structure.covering"],
            "mgts.perfectness_diagnosis.calls": c["mgts.perfectness_diagnosis"],
            "mgts.perfectness_diagnosis.s": s["mgts.perfectness_diagnosis"],
            "mgts.side_language.calls": c["mgts.side_language"],
            "mgts.side_language.self_s": own["mgts.side_language"],
            "mgts.side_language.words": n["mgts.side_language.words"],
            "mgts.side_language.truncated": n["mgts.side_language.truncated"],
            "decomposition.decompose.calls": c["decomposition.decompose"],
            "decomposition.decompose.s": s["decomposition.decompose"],
            "decomposition.refine.calls": c["decomposition.refine"],
            "decomposition.refine.s": s["decomposition.refine"],
            "decomposition.refine.case_i": n["decomposition.refine.case_i"],
            "decomposition.refine.case_ii": n["decomposition.refine.case_ii"],
            "decomposition.refine.case_iii": n["decomposition.refine.case_iii"],
            "decomposition.observer_product.states": n["decomposition.observer_product.states"],
            "decomposition.dec_along.s": s["decomposition.dec_along"],
            "decomposition.members": n["decomposition.members"],
            "zsep.z_separability.calls": c["zsep.z_separability"],
            "zsep.z_separability.s": s["zsep.z_separability"],
            "separator.lift_separator.s": s["separator.lift_separator"],
            "separator.lambert_pump.s": s["separator.lambert_pump"],
            "model.language_bounded.calls": c["model.language_bounded"],
            "model.language_bounded.s": s["model.language_bounded"],
            "model.language_bounded.words": n["model.language_bounded.words"],
            "automata.run_word.calls": c["automata.run_word"],
            "automata.run_word.self_s": own["automata.run_word"],
            "automata.step.calls": n["automata.step"],
            "automata.eps_closure.calls": n["automata.eps_closure"],
            "automata.enumerate_words.s": s["automata.enumerate_words"],
            "semilinear.approx_automaton.calls": c["semilinear.approx_automaton"],
            "semilinear.approx_automaton.s": s["semilinear.approx_automaton"],
            "semilinear.lin_member.calls": c["semilinear.lin_member"],
            "semilinear.basic_member.calls": c["semilinear.basic_member"],
            "semilinear.basic_member.s": s["semilinear.basic_member"],
            "semilinear.nfa_to_linear_cover.s": s["semilinear.nfa_to_linear_cover"],
            "semilinear.make_basic_separator.s": s["semilinear.make_basic_separator"],
            "errors.resource_exhausted": n["errors.resource_exhausted"],
        }
        for stage in STAGES:
            out[f"driver.{stage}.s"] = self.stage_time[stage]
        return out

    def write(self, path):
        """One JSON line per span: name, parent span index (-1 at the top),
        start and end in seconds of the round's performance counter."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
