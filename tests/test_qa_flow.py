"""Tests for simlint's whole-program rules (repro.qa.flow): SL010 and
SL011, run through ``repro.qa.lint`` like every other rule.

Fixture trees that should resolve like project packages live under a
directory *containing a ``repro`` path component* (``tmp/repro/...``)
so :func:`repro.qa.rules.package_relpath` anchors them; bare files in
``tmp_path`` get bare-filename relpaths, which every flow rule treats
as in scope.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.qa.lint import lint_paths, main

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def flow(paths, select=("SL010", "SL011")):
    return lint_paths([str(p) for p in paths], select=select)


def codes(findings):
    return [f.rule for f in findings]


@pytest.fixture()
def repo_tree(tmp_path):
    """A copy of the package; keeps the ``repro`` anchor so relpaths
    resolve as in the repo."""
    dest = tmp_path / "repro"
    shutil.copytree(REPO_SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def mutate(path: Path, old: str, new: str) -> None:
    source = path.read_text()
    assert old in source, f"mutation anchor vanished from {path.name}"
    path.write_text(source.replace(old, new))


# ---------------------------------------------------------------------------
# SL010: enforcement-path dominance
# ---------------------------------------------------------------------------
class TestSL010:
    UNGUARDED = (
        "class ScratchRouter:\n"
        "    def on_interest(self, interest, face):\n"
        "        data = self.cs.lookup(interest.name)\n"
        "        if data is not None:\n"
        "            self.send(face, data)\n"
    )

    def test_unguarded_send_is_flagged(self, tmp_path):
        router = tmp_path / "scratch_router.py"
        router.write_text(self.UNGUARDED)
        findings = flow([router], select={"SL010"})
        assert codes(findings) == ["SL010"]
        [finding] = findings
        assert finding.line == 5
        assert "ScratchRouter.on_interest" in finding.message
        assert "entry point" in finding.message

    def test_dominating_primitive_discharges(self, tmp_path):
        router = tmp_path / "scratch_router.py"
        router.write_text(
            "class ScratchRouter:\n"
            "    def on_interest(self, interest, face):\n"
            "        data = self.cs.lookup(interest.name)\n"
            "        if data is None:\n"
            "            return\n"
            "        self.bf_lookup(interest.tag)\n"
            "        self.send(face, data)\n"
        )
        findings = flow([router], select={"SL010"})
        assert codes(findings) == []

    def test_guard_must_have_matching_polarity(self, tmp_path):
        # Mentioning .nack in a branch test does NOT discharge the
        # send reached on the *other* arm — the laundering SL010's
        # Assume nodes exist to catch.
        router = tmp_path / "scratch_router.py"
        router.write_text(
            "class ScratchRouter:\n"
            "    def on_data(self, data, face):\n"
            "        if data.nack is None:\n"
            "            pass\n"
            "        self.send(face, data)\n"
        )
        findings = flow([router], select={"SL010"})
        assert codes(findings) == ["SL010"]

    def test_nack_clearance_guard_discharges(self, tmp_path):
        router = tmp_path / "scratch_router.py"
        router.write_text(
            "class ScratchRouter:\n"
            "    def on_data(self, data, face):\n"
            "        if data.nack is None:\n"
            "            self.send(face, data)\n"
        )
        findings = flow([router], select={"SL010"})
        assert codes(findings) == []

    def test_enforcing_helper_discharges_via_summary(self, tmp_path):
        # The call-graph summary: `vet` is enforcing (its exit is
        # dominated by bf_lookup), so a send dominated by a vet() call
        # is discharged interprocedurally.
        router = tmp_path / "scratch_router.py"
        router.write_text(
            "class ScratchRouter:\n"
            "    def vet(self, tag):\n"
            "        found, _ = self.bf_lookup(tag)\n"
            "        return found\n"
            "    def on_interest(self, interest, face):\n"
            "        data = self.cs.lookup(interest.name)\n"
            "        self.vet(interest.tag)\n"
            "        self.send(face, data)\n"
        )
        findings = flow([router], select={"SL010"})
        assert codes(findings) == []

    def test_obligation_propagates_to_callers(self, tmp_path):
        # The raw send in `_push` is fine when every caller dominates
        # the call; unguarded caller -> finding naming the chain.
        router = tmp_path / "scratch_router.py"
        router.write_text(
            "class ScratchRouter:\n"
            "    def _push(self, face, data):\n"
            "        self.send(face, data)\n"
            "    def on_interest(self, interest, face):\n"
            "        data = self.cs.lookup(interest.name)\n"
            "        self._push(face, data)\n"
        )
        findings = flow([router], select={"SL010"})
        assert codes(findings) == ["SL010"]
        [finding] = findings
        assert "via ScratchRouter.on_interest" in finding.message

    def test_suppression_comment_silences(self, tmp_path):
        router = tmp_path / "scratch_router.py"
        router.write_text(
            self.UNGUARDED.replace(
                "self.send(face, data)",
                "self.send(face, data)  # simlint: disable=SL010",
            )
        )
        findings = flow([router], select={"SL010"})
        assert codes(findings) == []


# ---------------------------------------------------------------------------
# SL010 against the real routers: unguarding a real enforcement site
# ---------------------------------------------------------------------------
class TestRouterMutations:
    def test_clean_tree_has_no_findings(self, repo_tree):
        findings = flow([repo_tree])
        assert codes(findings) == []

    def test_unguarding_edge_router_aggregate_validation(self, repo_tree):
        mutate(
            repo_tree / "core" / "edge_router.py",
            "            found, lookup_delay = self.bf_lookup(record.tag)\n"
            "            delay += lookup_delay\n"
            "            if found:\n"
            "                self._deliver(data, record, flag=self.current_flag_value(), delay=delay)\n"
            "                continue\n"
            "            valid, verify_delay = self.verify_tag_signature(record.tag)\n"
            "            delay += verify_delay\n"
            "            if valid and not record.tag.is_expired(self.sim.now):\n"
            "                delay += self.bf_insert(record.tag)\n"
            "                self._deliver(data, record, flag=0.0, delay=delay)\n",
            "            self._deliver(data, record, flag=0.0, delay=delay)\n",
        )
        findings = flow([repo_tree], select={"SL010"})
        assert codes(findings) == ["SL010"]
        [finding] = findings
        assert finding.path.endswith("core/edge_router.py")
        assert "_deliver" in finding.message
        assert "on_data" in finding.message

    def test_unguarding_content_router_precheck(self, repo_tree):
        mutate(
            repo_tree / "core" / "content_router.py",
            "        reason = content_precheck(tag, data)\n"
            "        if reason is not None:\n"
            "            self.counters.precheck_drops += 1\n"
            "            self._serve_with_nack(data, interest, in_face, reason, delay)\n"
            "            return\n",
            "",
        )
        findings = flow([repo_tree], select={"SL010"})
        assert codes(findings) == ["SL010"]
        [finding] = findings
        assert finding.path.endswith("core/content_router.py")
        assert "serve_content" in finding.message


# ---------------------------------------------------------------------------
# SL011: interprocedural determinism taint
# ---------------------------------------------------------------------------
class TestSL011:
    @pytest.fixture()
    def tree(self, tmp_path):
        root = tmp_path / "repro"
        (root / "experiments").mkdir(parents=True)
        (root / "core").mkdir()
        (root / "experiments" / "helpers.py").write_text(
            "import time\n"
            "\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "\n"
            "def jitter_for(node):\n"
            "    return _stamp() % 1.0\n"
        )
        (root / "core" / "patch.py").write_text(
            "from repro.experiments.helpers import _stamp, jitter_for\n"
            "\n"
            "class Patch:\n"
            "    def on_interest(self, interest):\n"
            "        return jitter_for(interest)\n"
            "\n"
            "def direct(x):\n"
            "    return _stamp()\n"
        )
        return root

    def test_laundered_wall_clock_is_caught(self, tree):
        findings = flow([tree], select={"SL011"})
        assert codes(findings) == ["SL011", "SL011"]
        messages = sorted(f.message for f in findings)
        # 2-level: on_interest -> jitter_for -> _stamp -> time.time
        assert any(
            "Patch.on_interest launders" in m and "jitter_for" in m
            and "time.time" in m
            for m in messages
        )
        # 1-level: direct -> _stamp -> time.time
        assert any(
            "direct launders" in m and "_stamp" in m for m in messages
        )
        for finding in findings:
            assert finding.path.endswith("core/patch.py")

    def test_lexical_sl001_misses_the_same_leak(self, tree):
        # The point of SL011: simlint's SL001 sees no wall-clock call
        # in the sim-scope file (the helper lives outside sim scope).
        findings = lint_paths([str(tree)], select={"SL001"})
        assert findings == []

    def test_alias_use_in_sim_scope(self, tmp_path):
        mod = tmp_path / "sneaky.py"
        mod.write_text(
            "import time\n"
            "\n"
            "def tick():\n"
            "    clock = time.time\n"
            "    return clock()\n"
        )
        findings = flow([mod], select={"SL011"})
        assert codes(findings) == ["SL011"]
        assert "alias" in findings[0].message

    def test_laundered_into_mobility_on_the_real_tree(self, repo_tree):
        # A wall-clock read in an analysis/ helper, added to the
        # handover delay of extensions/mobility.py.  The file rules see
        # no clock call in the sim-scope module, so of the whole rule
        # set only SL011 reports it.
        mutate(
            repo_tree / "analysis" / "bloom_math.py",
            "import math\n",
            "import math\nimport time\n\n\n"
            "def host_jitter() -> float:\n"
            "    return time.perf_counter() % 1e-3\n",
        )
        mobility = repo_tree / "extensions" / "mobility.py"
        mutate(
            mobility,
            "from repro.core.client import Client\n",
            "from repro.analysis.bloom_math import host_jitter\n"
            "from repro.core.client import Client\n",
        )
        mutate(
            mobility,
            "        self.sim.schedule(next_in, self._move, client)\n",
            "        self.sim.schedule(next_in + host_jitter(), self._move, client)\n",
        )
        findings = lint_paths([str(repo_tree)])
        assert codes(findings) == ["SL011"]
        [finding] = findings
        assert finding.path.endswith("extensions/mobility.py")
        assert "MobilityManager._move launders" in finding.message
        assert "time.perf_counter" in finding.message

    def test_sanctioned_rng_module_is_exempt(self, tmp_path):
        root = tmp_path / "repro"
        (root / "sim").mkdir(parents=True)
        (root / "sim" / "rng.py").write_text(
            "import os\n"
            "\n"
            "def seed_material():\n"
            "    return os.urandom(16)\n"
        )
        findings = flow([root], select={"SL011"})
        assert codes(findings) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestBaselineAndCli:
    def test_cli_exit_codes_and_sarif(self, tmp_path, capsys):
        # SL010/SL011 are simlint rules: listed, selectable and reported
        # by its CLI.
        router = tmp_path / "scratch_router.py"
        router.write_text(TestSL010.UNGUARDED)
        assert main(["--list-rules"]) == 0
        listing = capsys.readouterr().out
        assert "SL010" in listing and "SL011" in listing
        assert main([str(router), "--select", "SL999"]) == 2
        capsys.readouterr()
        assert main([str(router), "--select", "SL011"]) == 0
        capsys.readouterr()
        assert main([str(router), "--select", "SL010", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["SL010"]
