"""The codebase lint passes: self-test plus planted offenders.

The real ``src/repro`` tree must lint clean (that is the CI gate), and
each diagnostic code must actually fire on a minimal planted offender —
a lint that cannot detect its own violation guards nothing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import VerificationError
from repro.verify.codelint import PASSES, run_codebase_lints

REPO_ROOT = Path(__file__).resolve().parents[2]


def plant(tmp_path: Path, relpath: str, text: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def lint(tmp_path: Path, *passes: str):
    return run_codebase_lints(tmp_path, passes=list(passes) or None)


class TestSelfClean:
    def test_repo_lints_clean(self):
        report = run_codebase_lints(REPO_ROOT)
        assert report.ok, report.render()

    def test_unknown_pass_is_a_driver_error(self):
        with pytest.raises(VerificationError):
            run_codebase_lints(REPO_ROOT, passes=["nonsense"])

    def test_unparseable_file_is_a_driver_error(self, tmp_path):
        plant(tmp_path, "src/repro/core/broken.py", "def f(:\n")
        with pytest.raises(VerificationError):
            lint(tmp_path)

    def test_pass_registry_covers_all_rl_codes(self):
        from repro.verify.diagnostics import CODES

        registered = {
            code for codes, _ in PASSES.values() for code in codes
        }
        rl_codes = {
            code
            for code, text in CODES.items()
            if code.startswith("RL") and not text.startswith("(retired)")
        }
        assert registered == rl_codes


class TestRngPurity:
    def test_unseeded_rng_call_outside_noise_is_rl100(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/analysis/bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        report = lint(tmp_path, "rng")
        assert report.has("RL100")

    def test_time_call_is_rl100(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/clocky.py",
            "import time\nstamp = time.time()\n",
        )
        assert lint(tmp_path, "rng").has("RL100")

    def test_noise_layer_may_use_rng(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/noise/fine.py",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
        )
        assert lint(tmp_path, "rng").ok

    def test_set_iteration_in_key_function_is_rl110(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/jobs/keys.py",
            "def point_address(parts):\n"
            "    out = []\n"
            "    for p in set(parts):\n"
            "        out.append(p)\n"
            "    return tuple(out)\n",
        )
        assert lint(tmp_path, "rng").has("RL110")

    def test_unsorted_items_in_key_function_is_rl111(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/jobs/keys.py",
            "def content_key(payload):\n"
            "    return tuple(v for k, v in payload.items())\n",
        )
        assert lint(tmp_path, "rng").has("RL111")

    def test_sorted_items_is_fine(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/jobs/keys.py",
            "def content_key(payload):\n"
            "    return tuple(v for k, v in sorted(payload.items()))\n",
        )
        assert lint(tmp_path, "rng").ok

    def test_unsorted_json_dumps_in_key_function_is_rl112(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/jobs/keys.py",
            "import json\n"
            "def canonical_json(payload):\n"
            "    return json.dumps(payload)\n",
        )
        assert lint(tmp_path, "rng").has("RL112")


class TestLayering:
    def test_out_of_layer_import_is_rl200(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/upward.py",
            "from repro.jobs import store\n",
        )
        report = lint(tmp_path, "layering")
        assert report.has("RL200")

    def test_unlisted_deferred_upward_import_is_rl201(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/sneaky.py",
            "def helper():\n    from repro.jobs import store\n    return store\n",
        )
        assert lint(tmp_path, "layering").has("RL201")

    def test_unknown_package_is_rl202(self, tmp_path):
        plant(tmp_path, "src/repro/mystery/__init__.py", "")
        plant(tmp_path, "src/repro/mystery/mod.py", "x = 1\n")
        assert lint(tmp_path, "layering").has("RL202")

    def test_downward_import_is_fine(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/jobs/fine.py",
            "from repro.core import circuit\n",
        )
        assert lint(tmp_path, "layering").ok

    def test_type_checking_import_is_exempt(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/typed.py",
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.jobs import store\n",
        )
        assert lint(tmp_path, "layering").ok


class TestErrorDiscipline:
    def test_bare_value_error_is_rl300(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/raisy.py",
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise ValueError('no')\n"
            "    return x\n",
        )
        assert lint(tmp_path, "errors").has("RL300")

    def test_typed_raise_is_fine(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/raisy.py",
            "from repro.errors import CircuitError\n"
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise CircuitError('no')\n"
            "    return x\n",
        )
        assert lint(tmp_path, "errors").ok

    def test_validation_assert_is_rl301(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/asserty.py",
            "def f(x):\n    assert x > 0\n    return x\n",
        )
        assert lint(tmp_path, "errors").has("RL301")

    def test_narrowing_assert_is_fine(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/narrow.py",
            "def f(op):\n    assert op.gate is not None\n    return op.gate\n",
        )
        assert lint(tmp_path, "errors").ok

    def test_not_implemented_error_is_exempt(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/backends/abstractish.py",
            "def f():\n    raise NotImplementedError\n",
        )
        assert lint(tmp_path, "errors").ok


class TestTimingFrontDoor:
    def test_raw_time_call_is_rl500(self, tmp_path):
        plant(
            tmp_path,
            "src/repro/core/slowpoke.py",
            "import time\nstarted = time.perf_counter()\n",
        )
        assert lint(tmp_path, "timing").has("RL500")

    def test_from_import_alias_is_rl500(self, tmp_path):
        # Losing the module prefix must not dodge the lint.
        plant(
            tmp_path,
            "src/repro/runtime/sneaky.py",
            "from time import perf_counter as pc\nstarted = pc()\n",
        )
        assert lint(tmp_path, "timing").has("RL500")

    def test_obs_owns_the_clock(self, tmp_path):
        # repro.obs is the clock front door: raw time calls are its
        # job, for both the routing rule (RL500) and purity (RL100).
        plant(
            tmp_path,
            "src/repro/obs/clocky.py",
            "import time\nstamp = time.perf_counter_ns()\n",
        )
        assert lint(tmp_path, "timing").ok
        assert lint(tmp_path, "rng").ok

    def test_obs_may_not_touch_rng(self, tmp_path):
        # The clock carve-out is clock-only: RNG use in the
        # observability layer is still an RL100 purity finding.
        plant(
            tmp_path,
            "src/repro/obs/dicey.py",
            "import numpy as np\nroll = np.random.default_rng()\n",
        )
        assert lint(tmp_path, "rng").has("RL100")
