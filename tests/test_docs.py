"""The README lists exactly the scenarios and config keys the code has."""

import re
from dataclasses import fields
from pathlib import Path

from idjc import scenarios
from idjc.scenarios import SCENARIO_NAMES, ScenarioConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_scenario_table_lists_scenario_names():
    rows = re.findall(r"^\| `([a-z-]+)` +\|", README, flags=re.M)
    assert sorted(rows) == sorted(SCENARIO_NAMES)


def test_config_key_list_is_scenario_config_fields():
    listed = re.search(r"Config files are single flat JSON objects mirroring the flags\s*\((.*?)\)",
                       README, flags=re.S)
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert sorted(keys) == sorted(f.name for f in fields(ScenarioConfig))


def test_scenario_table_lists_the_keys_each_scenario_reads():
    rows = dict(re.findall(r"^\| `([a-z-]+)` +\|[^|]*\|(.*)\|$", README, flags=re.M))
    listed = {name: re.findall(r"`(\w+)`", keys) for name, keys in rows.items()}
    assert listed == {name: list(spec.reads) for name, spec in scenarios._SCENARIOS.items()}
