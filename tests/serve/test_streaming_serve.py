"""Served streaming evaluation: row-identity with the in-process path."""

import pytest

from repro.policy import AgentPolicy, InProcessClient, evaluate_policy
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.rl.transfer import load_agent, save_agent
from repro.serve.client import RemoteClient
from repro.spec import ExperimentSpec


STREAMING_SPEC = ExperimentSpec(
    seed=3,
    workload={
        "name": "mixed-families",
        "families": ["cholesky", "lu"],
        "tile_choices": [2, 3],
        "arrival": "trace",
        "trace": [0.0, 6.0, 15.0],
    },
)


@pytest.fixture(scope="session")
def streaming_checkpoint(tmp_path_factory):
    """A briefly-trained agent with the widened (job-aware) feature layout."""
    trainer = ReadysTrainer.from_spec(
        STREAMING_SPEC, config=A2CConfig(unroll_length=8)
    )
    trainer.train_updates(1)
    path = str(tmp_path_factory.mktemp("stream_ckpt") / "agent.npz")
    save_agent(trainer.agent, path)
    return path


class TestStreamingRowIdentity:
    def test_served_agent_matches_in_process(
        self, serve_factory, streaming_checkpoint
    ):
        running = serve_factory(checkpoint=streaming_checkpoint)
        local = evaluate_policy(
            STREAMING_SPEC.make_env(),
            InProcessClient(AgentPolicy(load_agent(streaming_checkpoint))),
            episodes=2,
            seed=7,
        )
        with RemoteClient.for_checkpoint(
            running.endpoint, streaming_checkpoint
        ) as client:
            remote = evaluate_policy(
                STREAMING_SPEC.make_env(), client, episodes=2, seed=7
            )
        # full records: makespans, returns, action rows, JCT/slowdown stats
        assert remote == local

    def test_served_episode_carries_job_statistics(
        self, serve_factory, streaming_checkpoint
    ):
        running = serve_factory(checkpoint=streaming_checkpoint)
        with RemoteClient.for_checkpoint(
            running.endpoint, streaming_checkpoint
        ) as client:
            (record,) = evaluate_policy(
                STREAMING_SPEC.make_env(), client, episodes=1, seed=1
            )
        assert record.num_jobs == 3
        assert len(record.jcts) == 3
        assert len(record.slowdowns) == 3
        assert record.arrivals == (0.0, 6.0, 15.0)
        assert record.num_decisions == len(record.actions)
