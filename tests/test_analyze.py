"""The static analysis suite: every rule catches its bad fixture and
passes its good one; pragmas and the baseline suppress as documented;
the committed tree is clean under the committed baseline."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import all_checkers, get_checker  # noqa: E402
from tools.analyze.core import ModuleInfo, run_analysis  # noqa: E402
from tools.analyze.checkers.units import unit_of_name  # noqa: E402


def check(source: str, rule: str, rel_path: str = "src/repro/fake_mod.py"):
    """Run one checker over an inline snippet, honoring pragmas."""
    source = textwrap.dedent(source)
    module = ModuleInfo(Path(rel_path), rel_path, source)
    checker = get_checker(rule)
    return [
        f for f in checker.check(module) if not module.allowed(f.line, f.rule)
    ]


class TestDeterminismChecker:
    def test_unseeded_default_rng_flagged(self):
        bad = """\
        import numpy as np
        rng = np.random.default_rng()
        """
        assert len(check(bad, "determinism")) == 1

    def test_default_rng_none_flagged(self):
        assert check("import numpy as np\nr = np.random.default_rng(None)\n", "determinism")

    def test_seeded_default_rng_clean(self):
        good = """\
        import numpy as np
        rng = np.random.default_rng(1234)
        """
        assert check(good, "determinism") == []

    def test_legacy_global_state_flagged(self):
        bad = """\
        import numpy as np
        np.random.seed(0)
        x = np.random.normal(0.0, 1.0)
        """
        assert len(check(bad, "determinism")) == 2

    def test_stdlib_random_flagged(self):
        bad = """\
        import random
        x = random.random()
        """
        assert len(check(bad, "determinism")) == 1

    def test_stdlib_random_from_import_flagged(self):
        assert check("from random import shuffle\n", "determinism")

    def test_wall_clock_flagged_in_library_only(self):
        bad = """\
        import time
        def stamp():
            return time.time()
        """
        assert len(check(bad, "determinism")) == 1
        # The same code outside src/ (a benchmark timing itself) is fine.
        assert check(bad, "determinism", rel_path="benchmarks/bench_fake.py") == []

    def test_as_rng_none_flagged_in_library(self):
        bad = """\
        from repro.utils import as_rng
        RNG = as_rng(None)
        """
        assert len(check(bad, "determinism")) == 1

    def test_stream_discipline_flagged(self):
        bad = """\
        import numpy as np
        def simulate(n, rng):
            fresh = np.random.default_rng(7)
            return fresh.normal(size=n)
        """
        found = check(bad, "determinism")
        assert len(found) == 1
        assert "stream" in found[0].message or "fresh generator" in found[0].message

    def test_stream_discipline_spawn_clean(self):
        good = """\
        from repro.utils import as_rng
        def simulate(n, rng):
            rng = as_rng(rng)
            child = rng.spawn(1)[0]
            return child.normal(size=n)
        """
        assert check(good, "determinism") == []

    def test_nested_function_not_misattributed(self):
        # The inner function has no rng of its own to violate; the outer
        # one never mints — no finding either way.
        good = """\
        import numpy as np
        def outer(rng):
            def inner(seed):
                return np.random.default_rng(seed)
            return inner
        """
        assert check(good, "determinism") == []


class TestUnitSuffixChecker:
    def test_cross_unit_add_flagged(self):
        assert check("total = dist_m + dur_s\n", "unit-suffix")

    def test_cross_scale_add_flagged(self):
        # Same dimension, different scale: still a missing conversion.
        assert check("t = window_s + guard_ms\n", "unit-suffix")

    def test_cross_unit_compare_flagged(self):
        assert check("ok = span_s > rate_hz\n", "unit-suffix")

    def test_cross_unit_keyword_flagged(self):
        found = check("f(period_s=carrier_hz)\n", "unit-suffix")
        assert len(found) == 1
        assert "period_s" in found[0].message

    def test_cross_unit_alias_flagged(self):
        assert check("offset_hz = delay_s\n", "unit-suffix")

    def test_augmented_accumulate_flagged(self):
        assert check("total_ms = 0.0\ntotal_ms += dwell_s\n", "unit-suffix")

    def test_same_unit_and_conversions_clean(self):
        good = """\
        total_m = near_m + far_m
        speed_m_s = dist_m / dur_s
        period_s = 1.0 / rate_hz
        x = dist_m + 5.0
        f(range_m=dist_m)
        """
        assert check(good, "unit-suffix") == []

    def test_multi_token_suffix_wins(self):
        assert unit_of_name("speed_m_s") == "m/s"
        assert unit_of_name("sigma_s") == "s"
        assert unit_of_name("plain") is None
        # Speed compared against seconds is a mix even though both end _s.
        assert check("ok = limit_m_s > dwell_s\n", "unit-suffix")


class TestRngPolicyChecker:
    def test_direct_construction_flagged(self):
        bad = """\
        import numpy as np
        class Sim:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
        """
        assert len(check(bad, "rng-policy")) == 1

    def test_as_rng_and_spawn_clean(self):
        good = """\
        from repro.utils import as_rng
        class Sim:
            def __init__(self, rng=None):
                self.rng = as_rng(rng)
                self.noise_rng = self.rng.spawn(1)[0]
        """
        assert check(good, "rng-policy") == []

    def test_dataclass_field_outside_funnel_flagged(self):
        bad = """\
        import numpy as np
        from dataclasses import dataclass, field
        @dataclass
        class Sim:
            rng: np.random.Generator = field(default_factory=np.random.default_rng)
        """
        assert len(check(bad, "rng-policy")) == 1

    def test_dataclass_field_through_funnel_clean(self):
        good = """\
        import numpy as np
        from dataclasses import dataclass, field
        from repro.utils import as_rng
        @dataclass
        class Sim:
            rng: np.random.Generator = field(default_factory=lambda: as_rng(None))
        @dataclass
        class Lazy:
            rng: object = None
        """
        assert check(good, "rng-policy") == []

    def test_only_library_code_checked(self):
        bad = "import numpy as np\nclass S:\n    def __init__(self):\n        self.rng = np.random.default_rng(0)\n"
        assert check(bad, "rng-policy", rel_path="tests/test_fake.py") == []


class TestAblationApiChecker:
    def test_undocumented_knob_flagged(self):
        bad = '''\
        def run(scene, combining="mrc"):
            """Run the scene."""
            return scene
        '''
        found = check(bad, "ablation-api")
        assert len(found) == 1
        assert "combining" in found[0].message

    def test_documented_knob_clean(self):
        good = '''\
        def run(scene, combining="mrc"):
            """Run the scene.

            combining: "mrc" (every antenna) or "single" (ablation).
            """
            return scene
        '''
        assert check(good, "ablation-api") == []

    def test_init_falls_back_to_class_docstring(self):
        good = '''\
        class Corridor:
            """A corridor.

            scheduling: "event" or "rounds".
            """
            def __init__(self, scheduling="event"):
                self.scheduling = scheduling
        '''
        assert check(good, "ablation-api") == []

    def test_dataclass_field_without_doc_flagged(self):
        bad = '''\
        from dataclasses import dataclass
        @dataclass
        class Result:
            """A result record."""
            handoff: str
        '''
        found = check(bad, "ablation-api")
        assert len(found) == 1
        assert "handoff" in found[0].message

    def test_private_helpers_exempt(self):
        good = """\
        def _forward(combining):
            return combining
        """
        assert check(good, "ablation-api") == []


class TestObsPolicyChecker:
    def test_obs_import_in_library_flagged(self):
        found = check("from repro.obs import Obs\n", "obs-policy")
        assert len(found) == 1
        assert "import" in found[0].message

    def test_obs_submodule_import_flagged(self):
        assert check("from repro.obs.metrics import MetricsRegistry\n", "obs-policy")
        assert check("import repro.obs.trace\n", "obs-policy")

    def test_hook_construction_in_library_flagged(self):
        bad = """\
        class Corridor:
            def __init__(self):
                self.obs = Obs()
        """
        found = check(bad, "obs-policy")
        assert len(found) == 1
        assert "Obs" in found[0].message
        assert check("registry = MetricsRegistry()\n", "obs-policy")
        assert check("tracer = SpanTracer()\n", "obs-policy")

    def test_nullable_hook_threading_clean(self):
        good = """\
        class Corridor:
            def __init__(self, obs=None):
                self.obs = obs
            def step(self):
                if self.obs is not None:
                    self.obs.count("corridor.round", outcome="clean")
        """
        assert check(good, "obs-policy") == []

    def test_obs_package_may_construct_and_import(self):
        good = """\
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import SpanTracer
        def make():
            return MetricsRegistry(), SpanTracer()
        """
        assert check(good, "obs-policy", rel_path="src/repro/obs/__init__.py") == []

    def test_non_library_code_exempt(self):
        bad = "from repro.obs import Obs\nobs = Obs()\n"
        for rel_path in (
            "tests/test_fake.py",
            "benchmarks/bench_fake.py",
            "examples/fake.py",
        ):
            assert check(bad, "obs-policy", rel_path=rel_path) == []

    def test_wall_clock_reference_in_obs_package_flagged(self):
        # A mere reference — storing the clock as a default timer — is a
        # breach even though no call happens at module import.
        bad = """\
        import time
        DEFAULT_TIMER = time.perf_counter
        """
        found = check(bad, "obs-policy", rel_path="src/repro/obs/metrics.py")
        assert len(found) == 1
        assert "perf_counter" in found[0].message
        # The same reference elsewhere in the library is this rule's
        # non-problem (determinism owns call sites there).
        assert check(bad, "obs-policy") == []

    def test_pragma_suppresses(self):
        src = "from repro.obs import Obs  # repro: allow[obs-policy] — demo\n"
        assert check(src, "obs-policy") == []

    def test_formatted_event_kind_flagged(self):
        bad = """\
        def plan(scheduler, station, car):
            scheduler.schedule(1.0, cb, f"{station.name}-next")
            scheduler.schedule(1.0, cb, kind="car%d-enter" % car.tag_id)
            self.scheduler.schedule(2.0, cb, "{}-exit".format(car), priority=-1)
        """
        found = check(bad, "obs-policy")
        assert [f.line for f in found] == [2, 3, 4]
        assert all("series" in f.message for f in found)

    def test_formatted_obs_label_flagged(self):
        bad = """\
        def report(self, obs, sobs, station, tag_id):
            obs.count("air.response", source=f"tag{tag_id}")
            sobs.instant("identified", 1.0, tag="tag%d" % tag_id)
            self._station_obs[station.name].gauge("held", 3, kind="{}".format(tag_id))
            self.obs.labeled(station=f"{station.name}-burst")
        """
        found = check(bad, "obs-policy")
        assert [f.line for f in found] == [2, 3, 4, 5]

    def test_fixed_kinds_names_and_tracks_clean(self):
        good = """\
        def report(scheduler, obs, station, tx, log):
            scheduler.schedule(1.0, cb, "attempt", priority=-1)
            scheduler.schedule(1.0, cb, kind=KIND)
            obs.count(f"air.{tx.kind.value}", source=tx.triggered_by)
            obs.count("corridor.round", outcome="clean", station=station.name)
            obs.span("round", 0.0, 1.0, track=f"sim/{station.name}")
            log.count("lines", tag=f"tag{tx.source}")
        """
        assert check(good, "obs-policy") == []
        bad = "obs.count('x', source=f'tag{tag_id}')\n"
        assert check(bad, "obs-policy")
        assert check(bad, "obs-policy", rel_path="tests/test_fake.py") == []


class TestParallelPolicyChecker:
    def test_multiprocessing_import_in_library_flagged(self):
        found = check("import multiprocessing\n", "parallel-policy")
        assert len(found) == 1
        assert "sharding engine" in found[0].message

    def test_concurrent_futures_flagged_in_every_form(self):
        assert check("import concurrent.futures\n", "parallel-policy")
        assert check("from concurrent import futures\n", "parallel-policy")
        assert check(
            "from concurrent.futures import ProcessPoolExecutor\n",
            "parallel-policy",
        )
        assert check("import threading\n", "parallel-policy")

    def test_engine_module_exempt(self):
        good = "import multiprocessing\nfrom concurrent import futures\n"
        assert (
            check(
                good,
                "parallel-policy",
                rel_path="src/repro/sim/city/parallel.py",
            )
            == []
        )

    def test_non_library_code_exempt(self):
        bad = "import multiprocessing\n"
        for rel_path in (
            "tests/test_fake.py",
            "benchmarks/bench_fake.py",
            "examples/fake.py",
            "tools/fake.py",
        ):
            assert check(bad, "parallel-policy", rel_path=rel_path) == []

    def test_innocent_imports_clean(self):
        good = """\
        import itertools
        from dataclasses import dataclass
        """
        assert check(good, "parallel-policy") == []

    def test_pragma_suppresses(self):
        src = "import threading  # repro: allow[parallel-policy] — demo\n"
        assert check(src, "parallel-policy") == []


class TestDependencyPolicyChecker:
    SCIPY = """\
    from scipy.signal import fftconvolve

    def root(f, a, b):
        import scipy.optimize
        return scipy.optimize.brentq(f, a, b)
    """

    def test_scipy_flagged_at_module_and_function_level(self):
        found = check(self.SCIPY, "dependency-policy")
        assert [f.line for f in found] == [1, 4]
        assert "`scipy.signal`" in found[0].message
        assert "`scipy.optimize`" in found[1].message
        assert all("numpy" in f.message for f in found)

    def test_numpy_stdlib_and_package_imports_clean(self):
        good = """\
        from __future__ import annotations

        import json
        import numpy as np
        import numpy.fft
        from numpy.fft import rfft
        from repro.errors import GeometryError
        from . import sibling
        from ..dsp import peaks

        def lazy():
            import math
            return math.pi
        """
        assert check(good, "dependency-policy") == []

    def test_non_library_code_exempt(self):
        for rel_path in ("benchmarks/bench_fake.py", "tests/test_fake.py"):
            assert check(self.SCIPY, "dependency-policy", rel_path=rel_path) == []


class TestBackhaulPolicyChecker:
    def test_direct_directory_report_flagged(self):
        bad = """\
        def on_sighting(self, directory, tag_id):
            directory.report(tag_id, 0.0, "s", "z", 0.0, 1.0)
        """
        found = check(bad, "backhaul-policy")
        assert len(found) == 1
        assert "BackhaulPlane" in found[0].message

    def test_attribute_receivers_flagged(self):
        bad = """\
        class Mesh:
            def run(self):
                self.directory.resolve(1.0, now_s=2.0)
                self.mesh._directory.apply_delta(7, 0.0, "s", "z", 0.0, 1.0)
        """
        assert len(check(bad, "backhaul-policy")) == 2

    def test_sanctioned_modules_exempt(self):
        good = "def f(directory):\n    directory.report(1, 0.0, 's', 'z', 0.0, 1.0)\n"
        for rel_path in (
            "src/repro/sim/city/backhaul.py",
            "src/repro/sim/city/directory.py",
            "src/repro/apps/tolling/backend.py",
            "src/repro/apps/tolling/__main__.py",
        ):
            assert check(good, "backhaul-policy", rel_path=rel_path) == []

    def test_non_library_code_exempt(self):
        bad = "def f(directory):\n    directory.report(1, 0.0, 's', 'z', 0.0, 1.0)\n"
        for rel_path in ("tests/test_fake.py", "benchmarks/bench_fake.py"):
            assert check(bad, "backhaul-policy", rel_path=rel_path) == []

    def test_other_receivers_clean(self):
        # Per-pole caches and modeled backends have the same method
        # names; only directory receivers are the guarded surface.
        good = """\
        def f(self, cache, backend):
            cache.resolve(1.0, now_s=2.0)
            backend.report(1, 0.0, "s", "z", 0.0, 1.0)
            self.plane.submit(1.0, "z", "s", 1, 0.0, 0.0, True)
            report(1, 0.0)
        """
        assert check(good, "backhaul-policy") == []

    def test_pragma_suppresses(self):
        src = (
            "def f(directory):\n"
            "    directory.resolve(1.0, now_s=0.0)"
            "  # repro: allow[backhaul-policy] — fixture\n"
        )
        assert check(src, "backhaul-policy") == []


class TestUnusedImportChecker:
    def test_unused_import_flagged(self):
        assert len(check("import os\nimport sys\nprint(sys.argv)\n", "unused-import")) == 1

    def test_all_and_noqa_exempt(self):
        good = """\
        import os  # noqa
        from repro import utils
        __all__ = ["utils"]
        """
        assert check(good, "unused-import") == []

    def test_init_py_skipped(self):
        assert (
            check("import os\n", "unused-import", rel_path="src/repro/__init__.py")
            == []
        )


class TestPragmasAndBaseline:
    def test_same_line_pragma_suppresses(self):
        src = "import numpy as np\nr = np.random.default_rng()  # repro: allow[determinism] — demo\n"
        assert check(src, "determinism") == []

    def test_preceding_comment_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "# repro: allow[determinism] — demo\n"
            "r = np.random.default_rng()\n"
        )
        assert check(src, "determinism") == []

    def test_wrong_rule_pragma_does_not_suppress(self):
        src = "import numpy as np\nr = np.random.default_rng()  # repro: allow[unit-suffix]\n"
        assert len(check(src, "determinism")) == 1

    def test_baseline_moves_findings_aside(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\nr = np.random.default_rng()\n")
        fresh = run_analysis([target], rules=["determinism"])
        assert len(fresh.new) == 1
        baseline = {f.key() for f in fresh.new}
        rerun = run_analysis([target], rules=["determinism"], baseline=baseline)
        assert rerun.new == [] and len(rerun.baselined) == 1

    def test_registry_has_all_rules(self):
        assert set(all_checkers()) >= {
            "determinism",
            "unit-suffix",
            "rng-policy",
            "ablation-api",
            "unused-import",
            "obs-policy",
        }


class TestCommittedTree:
    def test_analyze_clean_on_committed_tree(self, tmp_path):
        """`python -m tools.analyze src ...` exits clean with the committed baseline."""
        report_path = tmp_path / "report.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.analyze",
                "--json",
                str(report_path),
                "src",
                "tests",
                "benchmarks",
                "examples",
                "tools",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        report = json.loads(report_path.read_text())
        assert report["findings"] == []
        assert report["parse_errors"] == []
        assert report["files_checked"] > 100

    def test_unknown_rule_is_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.analyze", "--rules", "no-such-rule"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2

    def test_list_rules(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.analyze", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for rule in ("determinism", "unit-suffix", "rng-policy", "ablation-api"):
            assert rule in result.stdout

    def test_help_and_docs_name_every_registered_rule(self):
        """The ``--help`` text is built from the registry, and
        docs/ANALYSIS.md has one section per registered rule."""
        result = subprocess.run(
            [sys.executable, "-m", "tools.analyze", "--help"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        # argparse may wrap a rule name at its hyphen.
        help_text = " ".join(result.stdout.split()).replace("- ", "-")
        doc = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
        for rule in all_checkers():
            assert rule in help_text
            assert f"### `{rule}`" in doc


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
