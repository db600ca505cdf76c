"""Good/bad fixture snippets for each rule family RA1-RA5.

Each rule must demonstrably fail on its bad fixture and stay silent on
the good one — this is the suite that keeps the analyzers honest.
"""

import pytest

from tools.repro_analysis import Project, run_rules
from tools.repro_analysis.versions import update_lock


def findings_for(root, rules):
    report = run_rules(Project(root), rules)
    return report.findings


def rule_lines(findings, rule):
    return [(f.path, f.line) for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# RA1 — determinism
# ----------------------------------------------------------------------
class TestRA1Determinism:
    def test_flags_adhoc_default_rng(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def draw(seed):
                    rng = np.random.default_rng(seed)
                    return rng.random()
                """
            }
        )
        findings = findings_for(root, ["RA1"])
        assert rule_lines(findings, "RA1") == [("src/repro/mod.py", 5)]
        assert "as_generator" in findings[0].message

    def test_flags_legacy_module_level_numpy(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def reset():
                    np.random.seed(0)
                    return np.random.rand(3)
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA1"]), "RA1")) == 2

    def test_flags_stdlib_random_calls_and_imports(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import random
                from random import shuffle

                def pick(items):
                    shuffle(items)
                    return random.choice(items)
                """
            }
        )
        # import-from, shuffle() call, random.choice() call.
        assert len(rule_lines(findings_for(root, ["RA1"]), "RA1")) == 3

    def test_flags_numpy_random_importfrom(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                from numpy.random import default_rng
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA1"]), "RA1")) == 1

    def test_good_fixture_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np
                from repro._rng import as_generator, spawn_generators

                def draw(seed):
                    rng = as_generator(seed)
                    children = spawn_generators(seed, 2)
                    assert isinstance(rng, np.random.Generator)
                    return rng.random(), children
                """
            }
        )
        assert findings_for(root, ["RA1"]) == []

    def test_allowlists_the_rng_module_itself(self, make_tree):
        root = make_tree(
            {
                "src/repro/_rng.py": """
                import numpy as np

                def as_generator(seed):
                    return np.random.default_rng(seed)
                """
            }
        )
        assert findings_for(root, ["RA1"]) == []

    def test_examples_are_in_scope(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": "X = 1\n",
                "examples/demo.py": """
                import numpy as np

                rng = np.random.default_rng()
                """,
            }
        )
        assert rule_lines(findings_for(root, ["RA1"]), "RA1") == [("examples/demo.py", 4)]


# ----------------------------------------------------------------------
# RA2 — lock discipline
# ----------------------------------------------------------------------
_GUARDED_HEADER = """
import threading

GUARDED_BY = {"_published": "_swap_lock", "_count": "_swap_lock"}


class Store:
    def __init__(self):
        self._swap_lock = threading.Lock()
        self._published = None
        self._count = 0
"""


class TestRA2LockDiscipline:
    def test_flags_unlocked_access(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def peek(self):
        return self._published
                """
            }
        )
        lines = rule_lines(findings_for(root, ["RA2"]), "RA2")
        assert len(lines) == 1
        assert lines[0][0] == "src/repro/serve_mod.py"

    def test_with_lock_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def peek(self):
        with self._swap_lock:
            return self._published, self._count
                """
            }
        )
        assert findings_for(root, ["RA2"]) == []

    def test_access_after_with_block_is_flagged(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def swap(self, value):
        with self._swap_lock:
            self._published = value
        self._count += 1
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA2"]), "RA2")) == 1

    def test_holds_annotation_discharges(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def _publish_locked(self, value):  # repro-analysis: holds[_swap_lock]
        self._published = value
        self._count += 1
                """
            }
        )
        assert findings_for(root, ["RA2"]) == []

    def test_init_is_exempt(self, make_tree):
        # _GUARDED_HEADER's __init__ assigns both attributes unlocked.
        root = make_tree({"src/repro/serve_mod.py": _GUARDED_HEADER})
        assert findings_for(root, ["RA2"]) == []

    def test_nested_function_does_not_inherit_lock(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def deferred(self):
        with self._swap_lock:
            def later():
                return self._published
            return later
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA2"]), "RA2")) == 1

    def test_non_literal_table_is_a_meta_finding(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": """
                LOCK = "_lock"
                GUARDED_BY = {"_published": LOCK}
                """
            }
        )
        findings = findings_for(root, ["RA2"])
        assert [f.rule for f in findings] == ["RA0"]

    def test_modules_without_table_are_out_of_scope(self, make_tree):
        root = make_tree(
            {
                "src/repro/plain.py": """
                class Store:
                    def peek(self):
                        return self._published
                """
            }
        )
        assert findings_for(root, ["RA2"]) == []


# ----------------------------------------------------------------------
# RA3 — backend dispatch and oracle parity
# ----------------------------------------------------------------------
_PARITY_TEST = """
import pytest

@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_mymod_backends(backend):
    assert backend in ("vectorized", "reference")
"""


class TestRA3BackendParity:
    def test_flags_half_dispatch(self, make_tree):
        root = make_tree(
            {
                "src/repro/mymod.py": """
                def run(data, backend="vectorized"):
                    out = data
                    if backend == "vectorized":
                        out = data * 2
                    return out
                """,
                "tests/test_mymod_parity.py": _PARITY_TEST,
            }
        )
        lines = rule_lines(findings_for(root, ["RA3"]), "RA3")
        assert lines == [("src/repro/mymod.py", 4)]

    def test_else_branch_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/mymod.py": """
                def run(data, backend="vectorized"):
                    if backend == "vectorized":
                        out = data * 2
                    else:
                        out = sum([d * 2 for d in data])
                    return out
                """,
                "tests/test_mymod_parity.py": _PARITY_TEST,
            }
        )
        assert findings_for(root, ["RA3"]) == []

    def test_both_literals_handled_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/mymod.py": """
                def run(data, backend):
                    out = data
                    if backend == "vectorized":
                        out = data * 2
                    elif backend == "reference":
                        out = sum(data)
                    return out
                """,
                "tests/test_mymod_parity.py": _PARITY_TEST,
            }
        )
        assert findings_for(root, ["RA3"]) == []

    def test_terminating_branches_are_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/mymod.py": """
                def run(data, backend):
                    if backend == "reference":
                        return sum(data)
                    return data * 2
                """,
                "tests/test_mymod_parity.py": _PARITY_TEST,
            }
        )
        assert findings_for(root, ["RA3"]) == []

    def test_validation_guard_is_exempt(self, make_tree):
        # A raise-only guard is not a dispatch: no parity test required.
        root = make_tree(
            {
                "src/repro/mymod.py": """
                def check(backend):
                    if backend not in ("vectorized", "reference", "auto"):
                        raise ValueError(backend)
                    return backend
                """
            }
        )
        assert findings_for(root, ["RA3"]) == []

    def test_boolean_assignment_requires_parity_test(self, make_tree):
        root = make_tree(
            {
                "src/repro/mymod.py": """
                def run(data, backend):
                    vectorized = backend == "vectorized"
                    return data * 2 if vectorized else sum(data)
                """
            }
        )
        findings = findings_for(root, ["RA3"])
        assert len(findings) == 1
        assert "parity test" in findings[0].message

    def test_parity_test_must_mention_module_and_both_literals(self, make_tree):
        files = {
            "src/repro/mymod.py": """
            def run(data, backend):
                if backend == "reference":
                    return sum(data)
                return data * 2
            """,
            # Mentions the module but only one backend literal.
            "tests/test_mymod.py": """
            def test_mymod_fast():
                assert "vectorized"
            """,
        }
        root = make_tree(files)
        findings = findings_for(root, ["RA3"])
        assert len(findings) == 1
        assert "parity test" in findings[0].message

    def test_oracle_used_by_a_test_is_clean(self, make_tree):
        root = make_tree(
            {
                "tests/oracles/__init__.py": "from .loops import slow_sum\n",
                "tests/oracles/loops.py": """
                def slow_sum(values):
                    total = 0
                    for value in values:
                        total += value
                    return total

                def _helper():
                    return None
                """,
                "tests/test_sum.py": """
                import oracles

                def test_sum_matches_oracle():
                    assert sum([1, 2]) == oracles.slow_sum([1, 2])
                """,
                "tests/test_other.py": """
                from oracles.loops import slow_sum

                def test_import_by_name():
                    assert slow_sum([]) == 0
                """,
            }
        )
        assert findings_for(root, ["RA3"]) == []

    def test_flags_oracle_without_a_test(self, make_tree):
        root = make_tree(
            {
                "tests/oracles/loops.py": """
                def slow_sum(values):
                    return sum(values)

                class SlowCounter:
                    pass
                """,
                # Mentions the name, but not through the oracle package;
                # the oracle module itself does not count either.
                "tests/test_sum.py": """
                def test_library_only():
                    slow_sum = sum
                    assert slow_sum([1]) == 1
                """,
                "tests/oracles/check.py": """
                from oracles.loops import SlowCounter
                """,
            }
        )
        findings = findings_for(root, ["RA3"])
        assert rule_lines(findings, "RA3") == [
            ("tests/oracles/loops.py", 2),
            ("tests/oracles/loops.py", 5),
        ]
        assert "'slow_sum'" in findings[0].message
        assert "'SlowCounter'" in findings[1].message


# ----------------------------------------------------------------------
# RA4 — cache-version honesty
# ----------------------------------------------------------------------
_FEATURIZE_TREE = {
    "src/repro/featurize/groups.py": """
    class FeatureGroup:
        version = 1

    class VolumeGroup(FeatureGroup):
        version = 1

        def compute(self, stats):
            return stats.volume()
    """,
    "src/repro/featurize/stats.py": """
    def volume(counts):
        return counts.sum(axis=1)
    """,
    "src/repro/featurize/pipeline.py": """
    FEATURIZER_VERSION = 1
    """,
}


class TestRA4CacheVersionHonesty:
    def test_missing_lock_is_flagged(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "--update-lock" in findings[0].message

    def test_update_lock_round_trip(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        entities, problems = update_lock(root)
        assert problems == []
        assert set(entities) == {
            "groups.FeatureGroup",
            "groups.VolumeGroup",
            "featurize.stats",
        }
        assert findings_for(root, ["RA4"]) == []

    def test_source_change_without_bump_fails(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        groups = root / "src/repro/featurize/groups.py"
        groups.write_text(groups.read_text().replace("stats.volume()", "stats.volume() * 2"))
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "bump the version" in findings[0].message
        assert "groups.VolumeGroup" in findings[0].message

    def test_bumped_version_asks_for_lock_refresh(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        groups = root / "src/repro/featurize/groups.py"
        source = groups.read_text().replace("stats.volume()", "stats.volume() * 2")
        source = source.replace("    version = 1\n\n    def compute", "    version = 2\n\n    def compute")
        groups.write_text(source)
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "refresh" in findings[0].message
        # And --update-lock clears it.
        update_lock(root)
        assert findings_for(root, ["RA4"]) == []

    def test_stats_change_requires_featurizer_version_bump(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        stats = root / "src/repro/featurize/stats.py"
        stats.write_text(stats.read_text().replace("axis=1", "axis=-1"))
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "featurize.stats" in findings[0].message
        pipeline = root / "src/repro/featurize/pipeline.py"
        pipeline.write_text("FEATURIZER_VERSION = 2\n")
        (refresh,) = findings_for(root, ["RA4"])
        assert "refresh" in refresh.message

    def test_whitespace_only_edits_do_not_trip(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        stats = root / "src/repro/featurize/stats.py"
        stats.write_text(stats.read_text().replace("\n", "\n\n", 1) + "\n\n")
        assert findings_for(root, ["RA4"]) == []

    def test_new_and_removed_entities_point_at_update_lock(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        groups = root / "src/repro/featurize/groups.py"
        groups.write_text(
            groups.read_text()
            + "\n\nclass BreadthGroup(FeatureGroup):\n    version = 1\n"
        )
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "new entity" in findings[0].message
        groups.write_text(
            "class FeatureGroup:\n    version = 1\n"
        )
        messages = [f.message for f in findings_for(root, ["RA4"])]
        assert any("no longer exists" in m for m in messages)

    def test_missing_version_attribute_is_flagged(self, make_tree):
        tree = dict(_FEATURIZE_TREE)
        tree["src/repro/featurize/groups.py"] = """
        class FeatureGroup:
            version = 1

        class VolumeGroup(FeatureGroup):
            def compute(self, stats):
                return stats.volume()
        """
        root = make_tree(tree)
        update_lock(root)
        findings = findings_for(root, ["RA4"])
        assert any("version = N" in f.message for f in findings)


# ----------------------------------------------------------------------
# RA5 — one fan-out site
# ----------------------------------------------------------------------
class TestRA5OneFanOutSite:
    def test_flags_pools_and_segments_outside_parallel(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import multiprocessing as mp
                from concurrent.futures import ProcessPoolExecutor as Executor
                from multiprocessing import shared_memory

                def fan_out(work):
                    with Executor(max_workers=2) as pool:
                        list(pool.map(work, range(4)))
                    with mp.Pool(2) as pool:
                        pool.map(work, range(4))
                    segment = shared_memory.SharedMemory(create=True, size=8)
                    return segment
                """,
                "examples/demo.py": """
                import concurrent.futures
                import multiprocessing
                import multiprocessing.shared_memory

                concurrent.futures.ProcessPoolExecutor()
                multiprocessing.get_context("spawn").Pool(2)
                multiprocessing.shared_memory.SharedMemory(name="x")
                """,
            }
        )
        findings = findings_for(root, ["RA5"])
        assert rule_lines(findings, "RA5") == [
            ("examples/demo.py", 6),
            ("examples/demo.py", 7),
            ("examples/demo.py", 8),
            ("src/repro/mod.py", 7),
            ("src/repro/mod.py", 9),
            ("src/repro/mod.py", 11),
        ]
        assert "WorkerPool" in findings[0].message

    def test_parallel_module_is_allowlisted(self, make_tree):
        root = make_tree(
            {
                "src/repro/experiments/parallel.py": """
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing import shared_memory

                def pool(n):
                    return ProcessPoolExecutor(max_workers=n)

                def segment(size):
                    return shared_memory.SharedMemory(create=True, size=size)
                """
            }
        )
        assert findings_for(root, ["RA5"]) == []

    def test_good_fixture_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import multiprocessing
                from concurrent.futures import ThreadPoolExecutor

                from repro.experiments.parallel import WorkerPool

                def fan_out(state, task, args):
                    with WorkerPool(state, n_workers=2) as pool:
                        results = pool.map(task, args)
                    with ThreadPoolExecutor(2) as threads:
                        list(threads.map(print, results))
                    return multiprocessing.get_start_method()
                """
            }
        )
        assert findings_for(root, ["RA5"]) == []


# ----------------------------------------------------------------------
# Cross-rule: selection
# ----------------------------------------------------------------------
def test_unknown_rule_id_raises(make_tree):
    root = make_tree({"src/repro/mod.py": "X = 1\n"})
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(Project(root), ["RA9"])
