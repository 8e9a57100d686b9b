"""Extra CLI coverage: advise variants and error handling."""

import pytest

from repro.cli import main


def test_advise_lambda_uses_a10(capsys):
    assert main(["advise", "conv", "lambda:us-west=4"]) == 0
    out = capsys.readouterr().out
    assert "$2.40/h" in out  # 4 x $0.60 LambdaLabs A10


def test_advise_custom_gpu_and_tbs(capsys):
    assert main(["advise", "rn18", "gc:us=2", "--gpu", "t4",
                 "--tbs", "8192"]) == 0
    out = capsys.readouterr().out
    assert "TBS: 8192" in out


def test_advise_default_count_is_one(capsys):
    assert main(["advise", "conv", "gc:us", "gc:eu"]) == 0
    out = capsys.readouterr().out
    assert "peers: 2" in out


@pytest.mark.parametrize("tbs", ["0", "-64", "many"])
def test_advise_rejects_bad_tbs_as_usage_error(tbs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["advise", "conv", "gc:us=4", "--tbs", tbs])
    assert exit_info.value.code == 2
    assert "--tbs" in capsys.readouterr().err


def test_run_unknown_report_raises():
    with pytest.raises(KeyError):
        main(["run", "fig99"])


def test_main_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])
