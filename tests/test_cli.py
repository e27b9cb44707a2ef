import socket
import threading

import pytest

from splitft import net, orchestrator
from splitft.cli import main
from splitft.config import parse_config
from splitft.metrics import ranks_string


def test_run_twice_gives_byte_identical_csv(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("total_rounds = 6\nagg_period = 3\nseed = 7\n")
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "round,client_id,loss,ppl,split_j,assigned_ranks,I_g,delta_I,tau,aggregated"


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("total_rounds = 4\nseed = 7\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", str(cfg), "--out", str(a)])
    main(["run", "--config", str(cfg), "--seed", "8", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("text", [
    "",
    "n_clients = 5\nseed = 9\n",
    "n_blocks = 4\nn_clients = 4\nclient_budget = uniform:500,5000\nserver_budget = fixed:2500\nseed = 6\n",
])
def test_plan_prints_what_round_one_plans(text, tmp_path, capsys):
    """``splitft plan --config`` and round 1 of a run plan alike: the same
    split, I_g and ranks on every side, and the same infeasible clients."""
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert main(["plan", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = parse_config(str(path))
    budgets, server_budget = orchestrator.round_budgets(cfg, 1)
    rep = orchestrator.run_round(orchestrator.init_state(cfg), 1)
    assert lines[:2] == [f"split_j = {rep.split_j}", f"I_g = {rep.global_importance:.17g}"]
    assert lines[2:-1] == [
        f"client {cid} (budget {budgets[cid]:g}): {ranks_string(ranks)}"
        + ("  (base blocks exceed budget)" if cid in rep.infeasible_clients else "")
        for cid, ranks in sorted(rep.client_ranks.items())]
    assert lines[-1].startswith(f"server (budget {server_budget:g}): {ranks_string(rep.server_ranks)}")


def test_plan_prints_assignment(capsys):
    assert main([
        "plan", "--client-budgets", "2000,5000", "--server-budget", "9000",
        "--importance", "b0.Q=5;b1.V=2",
    ]) == 0
    out = capsys.readouterr().out
    assert "split_j = 1" in out
    assert "client 0" in out and "client 1" in out and "server" in out
    assert "b0.Q=" in out


@pytest.mark.parametrize("flags, named", [
    (["--importance", "b9.Q=1"], "'b9.Q=1'"),  # the default model has blocks 0 and 1
    (["--importance", "b0.Q=1;b0.X=1"], "'b0.X=1'"),
    (["--client-budgets", "1,x"], "'x'"),
])
def test_plan_names_a_bad_entry_and_exits_two(flags, named, capsys):
    assert main(["plan", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and named in err


@pytest.mark.parametrize("flags, named", [
    (["--server-budget", "nan"], "--server-budget"),
    (["--client-budgets", "2000,inf"], "'inf'"),
    (["--client-budgets", "2000,0"], "'0'"),
    (["--importance", "b0.Q=-1"], "'b0.Q=-1'"),
    (["--importance", "b0.Q=nan"], "'b0.Q=nan'"),
])
def test_plan_rejects_values_a_config_would_reject(flags, named, capsys):
    assert main(["plan", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("plan: ") and named in err


def test_a_config_file_that_cannot_be_read_is_one_line_and_exit_two(tmp_path, capsys):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"seed = \xff\n")
    for path in (tmp_path / "missing.cfg", binary, tmp_path):
        assert main(["plan", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("plan: --config: ")


def test_an_invalid_config_file_is_a_message_and_exit_two(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("total_rounds = 2\nlearning_rte = 1.0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "m.csv").exists()
    assert err == "run: invalid config:\n  line 2: unknown key 'learning_rte'\n"


def test_plan_with_starvation_budget_prints_empty_and_exits_zero(capsys):
    assert main(["plan", "--client-budgets", "1", "--server-budget", "1"]) == 0
    out = capsys.readouterr().out
    assert "-" in out  # empty assignments render as a dash
    assert "exceed" in out


def test_agg_check_passes(capsys):
    assert main(["agg-check", "--trials", "100", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_grad_check_passes(capsys):
    assert main(["grad-check", "--seeds", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_grad_check_fails_with_impossible_tolerance(capsys):
    assert main(["grad-check", "--seeds", "1", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_net_mode_requires_address_flags(tmp_path, monkeypatch, capsys):
    """``--listen`` and ``--connect`` exclude each other, and ``--client-id``
    goes with ``--connect`` alone: any other mix exits 2 and starts nothing."""
    def started(*args):
        raise AssertionError("the run started")

    for name in ("serve", "run_client"):
        monkeypatch.setattr(net, name, started)
    monkeypatch.setattr(orchestrator, "run_experiment", started)
    out = tmp_path / "m.csv"
    for flags in (["--listen", "127.0.0.1:1", "--connect", "127.0.0.1:1", "--client-id", "0"],
                  ["--connect", "127.0.0.1:1"],
                  ["--client-id", "0"]):
        try:
            code = main(["run", *flags, "--out", str(out)])
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
        assert code == 2, flags
        assert capsys.readouterr().out == "" and not out.exists()


def test_connect_joins_the_session_and_runs_nothing_in_process(monkeypatch, capsys):
    def in_process(*args):
        raise AssertionError("the run happened in process")

    joined = []
    monkeypatch.setattr(orchestrator, "run_experiment", in_process)
    monkeypatch.setattr(net, "run_client", lambda config, cid, host, port: joined.append((cid, host, port)) or 2)
    assert main(["run", "--connect", "127.0.0.1:1", "--client-id", "0"]) == 0
    assert joined == [(0, "127.0.0.1", 1)]
    assert capsys.readouterr().out == "client 0 finished after 2 rounds\n"


def test_a_client_id_outside_the_config_exits_before_connecting(capsys):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]  # nothing listens here once the socket closes
    for cid in ("3", "-1"):  # the default config has 3 clients
        assert main(["run", "--connect", f"127.0.0.1:{port}", "--client-id", cid]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("run: --client-id") and f"got {cid}" in err


@pytest.mark.parametrize("address", [[], ["--listen", "127.0.0.1:1"]], ids=["sim", "net-server"])
def test_an_out_path_that_cannot_be_written_exits_two_before_the_first_round(address, tmp_path, monkeypatch, capsys):
    def started(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(orchestrator, "run_experiment", started)
    monkeypatch.setattr(net, "serve", started)
    out = tmp_path / "missing" / "m.csv"
    assert main(["run", *address, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("run: --out: ") and str(out) in err


def test_a_net_client_does_not_create_its_out_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(net, "run_client", lambda config, cid, host, port: 3)
    out = tmp_path / "m.csv"
    assert main(["run", "--connect", "127.0.0.1:1", "--client-id", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "client 0 finished after 3 rounds\n"
    assert not out.exists()


def test_net_mode_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("total_rounds = 4\nagg_period = 2\nn_clients = 2\nseed = 1\n")
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    addr = f"127.0.0.1:{port}"
    out = tmp_path / "net.csv"

    codes = {}

    def side(key, *flags):
        return threading.Thread(target=lambda: codes.setdefault(key, main(["run", *flags, "--config", str(cfg)])),
                                daemon=True)

    clients = [side(c, "--connect", addr, "--client-id", str(c)) for c in range(2)]
    server = side("s", "--listen", addr, "--out", str(out))
    for t in clients + [server]:  # the clients first: each waits for the server to listen
        t.start()
    for t in [server] + clients:
        t.join(timeout=60)
        assert not t.is_alive()
    assert codes == {"s": 0, 0: 0, 1: 0}
    assert out.exists()
    assert len(out.read_text().splitlines()) == 1 + 4 * 2


def test_bad_address_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--listen", "nope"])
