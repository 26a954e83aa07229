"""``mvcom storm`` end to end: both drills, their replays, and rejections.

The single-solve drill is the documented violated -> shrink -> replay
path.  The multi-epoch drill runs the warm serve loop (``--epochs 3``),
fails ``strict-n-min`` in epoch 2 and writes a serve reproducer that
replays to the same raise.  ``fixtures/storm_reproducer_seed13.json`` is
the single-solve drill's output as written before ``StormConfig`` lost
its ``epochs`` field; it must still replay.
"""

import json
import os

import pytest

from repro.faultinject import SERVE_REPRODUCER_FORMAT, load_reproducer, replay_reproducer
from repro.harness.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "storm_reproducer_seed13.json")

SINGLE_DRILL = [
    "storm", "--seed", "13", "--events", "60", "--committees", "12",
    "--capacity", "9000", "--gamma", "4", "--iterations", "400",
    "--strict", "--shrink",
]
SERVE_DRILL = [
    "storm", "--seed", "18", "--events", "120", "--committees", "30",
    "--gamma", "4", "--iterations", "800", "--epochs", "3", "--strict",
]


def _replay(path, capsys):
    code = main(["storm", "--replay", str(path)])
    return code, capsys.readouterr().out


def test_single_solve_drill_shrinks_writes_and_replays(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(SINGLE_DRILL + ["--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "status=violated" in printed
    assert "minimal reproducer: 4 events" in printed
    reproducer = load_reproducer(str(out))
    assert reproducer["failure"]["invariant"] == "strict-n-min"
    assert "epochs" not in reproducer["config"]

    code, printed = _replay(out, capsys)
    assert code == 1
    assert "replay reproduced the recorded failure" in printed


def test_serve_drill_writes_a_reproducer_that_replays_exactly(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(SERVE_DRILL + ["--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "serve storm: seed=18 epochs=3" in printed
    reproducer = load_reproducer(str(out))
    assert reproducer["format"] == SERVE_REPRODUCER_FORMAT
    assert reproducer["config"]["events_per_epoch"] == 40
    assert reproducer["config"]["convergence_window"] == 200
    failure = reproducer["failure"]
    assert (failure["invariant"], failure["epoch"], failure["iteration"]) == (
        "strict-n-min", 2, 316,
    )

    replayed = replay_reproducer(reproducer)
    assert replayed.status == "violated"
    assert replayed.failed_epoch == 2
    assert replayed.violation.invariant == "strict-n-min"
    assert replayed.violation.iteration == 316
    assert str(replayed.violation) == failure["message"]

    code, printed = _replay(out, capsys)
    assert code == 1
    assert "replay reproduced the recorded failure" in printed
    assert "epoch 2:" in printed


def test_ci_serve_storm_survives(capsys):
    code = main([
        "storm", "--seed", "1", "--events", "120", "--committees", "30",
        "--gamma", "4", "--iterations", "800", "--epochs", "3",
    ])
    assert code == 0
    assert "status=survived  epochs-run=3  invariant-checks=38" in capsys.readouterr().out


def test_parent_recorded_reproducer_still_replays(capsys):
    recorded = load_reproducer(FIXTURE)
    assert recorded["config"]["epochs"] == 1
    replayed = replay_reproducer(recorded)
    assert replayed.status == "violated"
    assert replayed.signature == recorded["failure"]["invariant"] == "strict-n-min"

    code, printed = _replay(FIXTURE, capsys)
    assert code == 1
    assert "replay reproduced the recorded failure" in printed


@pytest.mark.parametrize("extra, message", [
    (["--shrink"], "--shrink needs a single solve"),
    (["--capacity", "9000"], "--capacity needs a single solve"),
])
def test_multi_epoch_rejects_single_solve_flags(extra, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["storm", "--epochs", "3"] + extra)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_non_positive_epochs_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["storm", "--epochs", "0"])
    assert exc.value.code == 2
    assert "--epochs must be positive" in capsys.readouterr().err


def test_replay_of_unknown_format_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    code, printed = _replay(path, capsys)
    assert code == 2
    assert printed.count("\n") == 1
    assert "format='something-else'" in printed

