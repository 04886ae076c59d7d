import json

import pytest
import record_cli_corpus as corpus

from k3bn.cli import main

with open(corpus.FIXTURE, encoding="utf-8") as _fh:
    CORPUS = json.load(_fh)

GROUPS = {
    "boxes": 18,
    "golden": 50,
    "refusals": 42,
    "reach": 10,
    "workload:box-verify": 4,
    "workload:lattice-scan": 9,
    "workload:profile-stream": 2625,
}


@pytest.mark.parametrize("group", GROUPS)
def test_every_corpus_command_prints_what_was_recorded(group, tmp_path, monkeypatch):
    # exit code and stdout (minus elapsed_ms) of every command, in one process;
    # re-record with tests/record_cli_corpus.py only when a report is meant to change
    entries = [entry for entry in CORPUS["commands"] if entry["group"] == group]
    names = {arg for entry in entries for arg in entry["argv"]} & CORPUS["documents"].keys()
    corpus.write_documents({name: CORPUS["documents"][name] for name in names}, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    moved = [
        (entry["argv"], got)
        for entry in entries
        if (got := corpus.run_entry(main, entry)) != (entry["exit"], entry["sha256"])
    ]
    assert moved == []


def test_the_corpus_covers_every_group_and_exit_code():
    groups = {}
    for entry in CORPUS["commands"]:
        groups[entry["group"]] = groups.get(entry["group"], 0) + 1
    assert groups == GROUPS
    assert {entry["exit"] for entry in CORPUS["commands"]} == {0, 2, 10, 20}
