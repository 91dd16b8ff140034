"""repro-lint: rule-family fixtures, suppressions, baselines, CLI.

Two jobs: prove each rule family actually fires (on fixture files under
``tests/fixtures/analysis/``, laid out as a miniature ``repro`` tree so
package-scoped rules apply), and prove the analyzer's plumbing --
suppression comments, baseline load/diff, JSON schema, exit codes --
behaves as documented.  The capstone asserts the real source tree is
clean, which is the CI lint gate in miniature.
"""

import json
import os

import pytest

from repro.analysis import all_rules, analyze_paths, core
from repro.analysis.baseline import (
    load_baseline,
    split_against_baseline,
    write_baseline,
)
from repro.analysis.cli import main

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "analysis", "repro"
)


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def findings_for(path, select=None):
    report = analyze_paths([path], select=select)
    assert not report.errors, report.errors
    return report.findings


def lines_for(path, rule):
    return sorted(f.line for f in findings_for(path) if f.rule == rule)


# -- each rule family fires on its fixture ------------------------------------


def test_det_set_iter_fixture_fires():
    assert lines_for(fixture("sharding", "det_set_iter_bad.py"), "det-set-iter") == [
        11,
        13,
        14,
        15,
    ]


def test_det_random_fixture_fires():
    assert lines_for(fixture("sharding", "det_entropy_bad.py"), "det-random") == [
        9,
        13,
        14,
    ]


def test_det_wallclock_fixture_fires():
    assert lines_for(fixture("sharding", "det_entropy_bad.py"), "det-wallclock") == [
        20,
        22,
    ]


def test_det_id_order_fixture_fires():
    assert lines_for(fixture("sharding", "det_order_bad.py"), "det-id-order") == [
        12,
        13,
        18,
        18,
    ]


def test_det_hash_order_fixture_fires():
    assert lines_for(fixture("sharding", "det_order_bad.py"), "det-hash-order") == [
        22,
        26,
    ]


def test_fork_global_write_fixture_fires():
    findings = findings_for(fixture("sharding", "fork_global_bad.py"))
    assert [f.rule for f in findings] == ["fork-worker-global-write"] * 3
    assert [f.line for f in findings] == [15, 16, 17]
    # the read-only worker and the parent-side publisher stay clean
    assert all("'_worker'" in f.message for f in findings)


def test_fork_capture_fixture_fires():
    assert lines_for(fixture("sharding", "fork_capture_bad.py"), "fork-unsafe-capture") == [
        11,
        12,
        13,
    ]


def test_fork_capture_durable_fixture_fires():
    # storage/ is in the rule's scope: sqlite connections and WAL file
    # handles are fork-hostile exactly like locks and generators.
    findings = findings_for(fixture("storage", "durable_bad.py"))
    assert [f.rule for f in findings] == ["fork-unsafe-capture"] * 2
    assert [f.line for f in findings] == [13, 14]
    assert "sqlite connection" in findings[0].message


def test_fork_capture_boundary_dunder_exempts():
    # A class that declares its boundary (__getstate__ raising) holds
    # the same resources without findings: nothing crosses silently.
    assert findings_for(fixture("storage", "durable_clean.py")) == []


def test_fragment_fixture_fires():
    assert lines_for(
        fixture("sharding", "fragment_bad.py"), "fragment-unpicklable-field"
    ) == [19, 23, 24]


def test_obs_clock_fixture_fires():
    findings = findings_for(fixture("obs", "clock_bad.py"))
    assert [f.rule for f in findings] == ["obs-clock"] * 2
    assert [f.line for f in findings] == [8, 9]
    # det-wallclock defers to the obs-specific rule inside repro.obs
    assert lines_for(fixture("obs", "clock_bad.py"), "det-wallclock") == []


def test_obs_export_fixture_is_clean():
    assert findings_for(fixture("obs", "export.py")) == []


def test_layering_fixture_fires():
    findings = findings_for(fixture("maintenance", "layer_bad.py"))
    assert [f.rule for f in findings] == ["layer-upward-import"] * 3
    assert [f.line for f in findings] == [9, 14, 20]


def test_sort_by_dewey_object_fixture_fires():
    path = fixture("maintenance", "sort_key_bad.py")
    assert lines_for(path, "sort-by-dewey-object") == [5, 6, 7]
    assert len(findings_for(path)) == 3  # the .id.sort_key forms are clean


def test_bisect_by_dewey_object_fixture_fires():
    path = fixture("maintenance", "bisect_key_bad.py")
    assert lines_for(path, "bisect-by-dewey-object") == [7, 8, 9]
    assert len(findings_for(path)) == 3
    # The same probes over a sort_key list are clean.
    assert findings_for(fixture("maintenance", "bisect_key_ok.py")) == []


def test_clean_fixture_is_clean():
    assert findings_for(fixture("sharding", "clean_ok.py")) == []


def test_rebalance_fixture_fires_across_families():
    # A naive rebalancer trips one rule per habit the real policy
    # avoids -- its decisions could not replay from recorded timings.
    findings = findings_for(fixture("sharding", "rebalance_bad.py"))
    assert [(f.rule, f.line) for f in findings] == [
        ("det-wallclock", 14),
        ("det-hash-order", 18),
        ("det-set-iter", 24),
        ("det-random", 26),
    ]


def test_rebalance_module_is_clean_without_suppressions():
    import repro.sharding.rebalance as rebalance_module

    path = rebalance_module.__file__
    assert findings_for(path) == []
    with open(path) as handle:
        assert "repro-lint:" not in handle.read()  # zero suppressions


# -- the real tree is clean (the CI gate in miniature) ------------------------


def test_source_tree_is_clean():
    report = analyze_paths([core.default_target()])
    assert report.findings == []
    assert report.errors == []
    assert report.files_checked > 60


def test_rule_registry_covers_five_families():
    families = {rule.family for rule in all_rules()}
    assert {
        "determinism",
        "fork-safety",
        "picklability",
        "layering",
        "hot-path",
    } == families


# -- suppressions -------------------------------------------------------------


def _write_module(tmp_path, relative, source):
    path = tmp_path / "repro" / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


def test_line_suppression_silences_one_rule(tmp_path):
    path = _write_module(
        tmp_path,
        "sharding/suppressed.py",
        "def f(labels):\n"
        "    touched = set(labels)\n"
        "    a = list(touched)  # repro-lint: disable=det-set-iter\n"
        "    b = list(touched)\n"
        "    return a, b\n",
    )
    report = analyze_paths([path])
    assert [f.line for f in report.findings] == [4]
    assert report.suppressed == 1


def test_family_and_star_suppressions(tmp_path):
    path = _write_module(
        tmp_path,
        "sharding/suppressed2.py",
        "import time\n"
        "def f():\n"
        "    a = time.time()  # repro-lint: disable=determinism\n"
        "    b = time.time()  # repro-lint: disable=*\n"
        "    return a, b\n",
    )
    report = analyze_paths([path])
    assert report.findings == []
    assert report.suppressed == 2


def test_file_level_suppression(tmp_path):
    path = _write_module(
        tmp_path,
        "sharding/suppressed3.py",
        "# repro-lint: disable-file=det-wallclock\n"
        "import time\n"
        "def f():\n"
        "    return time.time()\n",
    )
    report = analyze_paths([path])
    assert report.findings == []
    assert report.suppressed == 1


def test_suppression_for_other_rule_does_not_silence(tmp_path):
    path = _write_module(
        tmp_path,
        "sharding/suppressed4.py",
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro-lint: disable=det-random\n",
    )
    report = analyze_paths([path])
    assert [f.rule for f in report.findings] == ["det-wallclock"]


# -- baselines ----------------------------------------------------------------


def test_baseline_roundtrip_and_diff(tmp_path):
    path = _write_module(
        tmp_path,
        "sharding/legacy.py",
        "import time\n"
        "def f():\n"
        "    return time.time()\n",
    )
    findings = analyze_paths([path]).findings
    assert len(findings) == 1
    baseline_file = tmp_path / "baseline.json"
    assert write_baseline(str(baseline_file), findings) == 1
    fingerprints = load_baseline(str(baseline_file))
    assert fingerprints == {findings[0].fingerprint()}

    # unchanged tree: everything baselined, nothing new, nothing stale
    new, baselined, stale = split_against_baseline(findings, fingerprints)
    assert (new, len(baselined), stale) == ([], 1, set())

    # a fresh violation shows up as new (different line text -- identical
    # lines share a fingerprint by design); fixing the old one leaves it
    # stale
    with open(path, "a") as handle:
        handle.write("def g():\n    started = time.time()\n    return started\n")
    grown = analyze_paths([path]).findings
    new, baselined, stale = split_against_baseline(grown, fingerprints)
    assert len(new) == 1 and len(baselined) == 1 and stale == set()

    fixed = [f for f in grown if f.line != 3]
    new, baselined, stale = split_against_baseline(fixed, fingerprints)
    assert len(new) == 1 and baselined == [] and stale == fingerprints


def test_baseline_fingerprint_survives_line_shift(tmp_path):
    path = _write_module(
        tmp_path,
        "sharding/shifty.py",
        "import time\n"
        "def f():\n"
        "    return time.time()\n",
    )
    before = analyze_paths([path]).findings[0]
    with open(path) as handle:
        source = handle.read()
    with open(path, "w") as handle:
        handle.write("import os\n" + source)
    after = analyze_paths([path]).findings[0]
    assert after.line == before.line + 1
    assert after.fingerprint() == before.fingerprint()


def test_load_baseline_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_baseline(str(bad))


# -- CLI: JSON schema and exit codes ------------------------------------------


def test_cli_json_schema_on_fixtures(capsys):
    code = main(["--format=json", fixture("sharding", "det_set_iter_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["errors"] == []
    assert payload["counts"] == {"det-set-iter": 4}
    assert payload["stale_baseline_entries"] == []
    for finding in payload["findings"]:
        assert set(finding) == {
            "rule",
            "family",
            "path",
            "line",
            "col",
            "message",
            "fingerprint",
        }
    # stable ordering: sorted by (path, line, col, rule)
    keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in payload["findings"]]
    assert keys == sorted(keys)


def test_cli_exit_zero_on_clean_tree(capsys):
    assert main(["--format=json", core.default_target()]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []


def test_cli_exit_one_on_unparsable_file(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    code = main(["--format=json", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["findings"] == []
    assert [e["rule"] for e in payload["errors"]] == ["parse-error"]


def test_cli_select_unknown_rule_is_usage_error(capsys):
    assert main(["--select=no-such-rule", FIXTURES]) == 2


def test_cli_select_runs_only_selected(capsys):
    code = main(
        ["--select=det-wallclock", "--format=json", fixture("sharding", "det_entropy_bad.py")]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(payload["counts"]) == {"det-wallclock"}


def test_cli_baseline_flow(tmp_path, capsys):
    target = fixture("sharding", "det_order_bad.py")
    baseline_file = str(tmp_path / "baseline.json")
    assert main(["--write-baseline", baseline_file, target]) == 0
    capsys.readouterr()
    assert main(["--baseline", baseline_file, "--format=json", target]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["baselined"] == 6


def test_cli_baseline_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["--baseline", str(tmp_path / "nope.json"), FIXTURES])
    assert code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out
