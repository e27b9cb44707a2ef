from dataclasses import fields

import pytest

from splitft.config import BudgetSpec, ConfigError, ExperimentConfig, parse_config_text
from splitft.model import ModelConfig


def test_empty_text_gives_validated_defaults():
    cfg = parse_config_text("")
    assert cfg.rank_set == (1, 2, 4, 8, 16, 32)
    assert cfg.n_clients == 3
    assert cfg.model.n_blocks == 2


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# a comment\n\nseed = 9  # trailing\n")
    assert cfg.seed == 9


def test_full_round_trip_of_keys():
    text = """
    n_blocks = 4
    d_model = 16
    n_heads = 2
    vocab_size = 32
    seq_len = 8
    n_clients = 2
    total_rounds = 20
    agg_period = 5
    batch = 1
    shard_size = 4
    rank_set = 2,4,8
    kappa_opt = 2.5
    beta_act = 0.75
    learning_rate = 0.5
    seed = 7
    agg_mode = sum
    aggregator = haa
    client_budget = fixed:5000
    server_budget = uniform:2000,3000
    tau0 = 0.1
    epsilon = 0.02
    """
    cfg = parse_config_text(text)
    assert cfg.model.n_blocks == 4
    assert cfg.rank_set == (2, 4, 8)
    assert cfg.client_budget == BudgetSpec("fixed", value=5000.0)
    assert cfg.server_budget.kind == "uniform"
    assert cfg.aggregator == "haa"
    assert cfg == ExperimentConfig(
        model=ModelConfig(n_blocks=4, d_model=16, n_heads=2, vocab_size=32, seq_len=8),
        n_clients=2, total_rounds=20, agg_period=5, batch=1, shard_size=4, rank_set=(2, 4, 8),
        kappa_opt=2.5, beta_act=0.75, learning_rate=0.5, seed=7, agg_mode="sum", aggregator="haa",
        client_budget=BudgetSpec("fixed", value=5000.0), server_budget=BudgetSpec("uniform", lo=2000.0, hi=3000.0),
        tau0=0.1, epsilon=0.02,
    )
    # Every field is a key, so the text above sets each one.
    keys = {line.split("=")[0].strip() for line in text.strip().splitlines()}
    assert keys == {f.name for f in fields(ModelConfig) + fields(ExperimentConfig) if f.name != "model"}


def test_scripted_budget_syntax():
    cfg = parse_config_text("total_rounds = 2\nclient_budget = scripted:1=100,2=250.5")
    assert cfg.client_budget.table == {1: 100.0, 2: 250.5}


def test_a_scripted_table_must_cover_every_round():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("total_rounds = 4\nserver_budget = scripted:1=8000,2=8000\n"
                          "client_budget = scripted:1=9,3=9,4=9,5=9")
    assert exc.value.errors == ["client_budget: scripted budget table has no entry for rounds [2]",
                                "server_budget: scripted budget table has no entry for rounds [3, 4]"]
    # Entries past the last round are allowed.
    assert parse_config_text("total_rounds = 2\nserver_budget = scripted:1=1,2=1,3=1").total_rounds == 2


def test_a_scripted_round_named_twice_is_an_error():
    # The last value used to win silently: this config planned with 9000.
    with pytest.raises(ConfigError) as exc:
        parse_config_text("total_rounds = 1\nserver_budget = scripted:1=5000,1=9000")
    assert exc.value.errors == ["server_budget: scripted budget names round 1 twice"]


@pytest.mark.parametrize("spec", ["uniform:1", "uniform:1,2,3", "uniform:a,2"])
def test_a_uniform_budget_needs_two_bounds(spec):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"client_budget = {spec}")
    assert exc.value.errors == [f"client_budget: expected uniform:<lo>,<hi>, got {spec!r}"]


@pytest.mark.parametrize("line, error", [
    ("server_budget = scripted:1", "server_budget: expected scripted:<round>=<budget>,..., got 'scripted:1'"),
    ("server_budget = scripted:x=5", "server_budget: expected scripted:<round>=<budget>,..., got 'scripted:x=5'"),
    ("server_budget = scripted:1=5=6", "server_budget: expected scripted:<round>=<budget>,..., got 'scripted:1=5=6'"),
    ("client_budget = fixed:", "client_budget: expected fixed:<value>, got 'fixed:'"),
    ("rank_set = 1,,2", "rank_set: expected <rank>,<rank>,..., got '1,,2'"),
])
def test_a_malformed_value_names_its_expected_form(line, error):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(line)
    assert exc.value.errors == [error]


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("learning_rte = 1.0")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2")


def test_all_errors_reported_together():
    text = "agg_period = 0\nbogus = 1\nlearning_rate = -2\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    msg = str(exc.value)
    assert "bogus" in msg
    assert "agg_period" in msg
    assert "learning_rate" in msg


def test_zero_aggregation_period_names_the_field():
    with pytest.raises(ConfigError, match="agg_period"):
        parse_config_text("agg_period = 0")


def test_budget_spec_validation():
    with pytest.raises(ValueError):
        BudgetSpec("fixed", value=0).validate()
    with pytest.raises(ValueError):
        BudgetSpec("uniform", lo=5, hi=2).validate()
    with pytest.raises(ValueError):
        BudgetSpec("scripted", table={}).validate()
    with pytest.raises(ValueError):
        BudgetSpec("exotic").validate()
    BudgetSpec("uniform", lo=2, hi=2).validate()


def test_config_validate_collects_field_errors():
    cfg = ExperimentConfig(n_clients=0, agg_mode="avg", rank_set=(3, 1))
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert len(exc.value.errors) == 3


def test_haa_is_refused_where_clients_can_get_different_ranks():
    """Averaging needs one rank per weight across clients. Several ranks and
    uniform budgets with lo < hi can break that at the first merge, so
    validation refuses it; equal client budgets give every client the same
    ranks, and one client or one rank cannot mix ranks at all."""
    with pytest.raises(ConfigError) as exc:
        parse_config_text("aggregator = haa")
    assert exc.value.errors == [
        "aggregator: haa averages one rank per weight, but rank_set (1, 2, 4, 8, 16, 32) with client_budget "
        "uniform:1200,6000 can give clients different ranks; use one rank or equal client budgets"]
    for text in ("client_budget = fixed:5000", "client_budget = uniform:3000,3000", "rank_set = 8",
                 "n_clients = 1", "total_rounds = 2\nclient_budget = scripted:1=2000,2=6000"):
        assert parse_config_text(f"aggregator = haa\n{text}").aggregator == "haa", text


def test_bad_value_types_are_reported():
    with pytest.raises(ConfigError, match="rank_set"):
        parse_config_text("rank_set = 1,two")
    with pytest.raises(ConfigError, match="budget"):
        parse_config_text("client_budget = sometimes:5")


def test_key_errors_keep_their_messages():
    text = ("seed = 1\nseed = 2\nlearning_rte = 1.0\njust words\nrank_set = 1,two\nbatch = 1.5\n"
            "client_budget = sometimes:5\nmodel = 3\nd_model = x\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.errors == [
        "line 2: duplicate key 'seed'",
        "line 3: unknown key 'learning_rte'",
        "line 4: expected 'key = value', got 'just words'",
        "rank_set: expected <rank>,<rank>,..., got '1,two'",
        "batch: invalid literal for int() with base 10: '1.5'",
        "client_budget: unknown budget kind 'sometimes' (expected fixed|uniform|scripted)",
        "line 8: unknown key 'model'",
        "d_model: invalid literal for int() with base 10: 'x'",
    ]


def test_ranks_above_d_model_are_a_rank_set_error():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("d_model = 16\nn_heads = 2")
    assert exc.value.errors == ["rank_set: ranks must not exceed d_model=16, got (1, 2, 4, 8, 16, 32)"]
    assert parse_config_text("d_model = 16\nn_heads = 2\nrank_set = 1,2,4,8,16").rank_set == (1, 2, 4, 8, 16)


@pytest.mark.parametrize("line, error", [
    ("tau0 = nan", "tau0 must be finite, got nan"),
    ("learning_rate = inf", "learning_rate must be finite, got inf"),
    ("server_budget = fixed:nan", "server_budget: fixed budget values must be finite"),
    ("client_budget = uniform:1200,inf", "client_budget: uniform budget values must be finite"),
    ("client_budget = scripted:1=5,2=nan", "client_budget: scripted budget values must be finite"),
])
def test_non_finite_values_are_errors(line, error):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"total_rounds = 2\n{line}")
    assert exc.value.errors == [error]
