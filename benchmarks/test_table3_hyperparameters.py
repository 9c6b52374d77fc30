"""Table III — hyper-parameters of VAER.

Asserts that the library defaults reproduce the configuration the paper
reports, and prints the table.  The benchmark times configuration
construction (trivially fast; included so every table has a bench target).
"""

from repro.config import VAERConfig
from repro.eval.reporting import format_table


def test_table3_hyperparameters(benchmark):
    config = benchmark.pedantic(VAERConfig.paper_defaults, rounds=1, iterations=1)

    rows = [
        ["Repr. learning", "VAE hidden dimension", str(config.vae.hidden_dim), "200"],
        ["Repr. learning", "VAE latent dimension", str(config.vae.latent_dim), "100"],
        ["Matching", "Margin M", str(config.matcher.margin), "0.5"],
        ["AL", "Samples/iteration", str(config.active_learning.samples_per_iteration), "10"],
        ["AL", "Top neighbours K", str(config.active_learning.top_neighbours), "10"],
        ["Repr. & matching", "Optimizer", "Adam", "Adam"],
        ["Repr. & matching", "Learning rate", str(config.vae.learning_rate), "0.001"],
    ]
    print("\n\nTable III — hyperparameters (this repo vs the paper)\n")
    print(format_table(["Component", "Parameter", "Repo value", "Paper value"], rows))

    assert config.vae.hidden_dim == 200
    assert config.vae.latent_dim == 100
    assert config.matcher.margin == 0.5
    assert config.active_learning.samples_per_iteration == 10
    assert config.active_learning.top_neighbours == 10
    assert config.vae.learning_rate == 0.001
    assert config.matcher.learning_rate == 0.001
