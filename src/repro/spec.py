"""One experiment cell as a value: :class:`ExperimentSpec`.

Every CLI subcommand and the evaluation harness used to re-plumb the same
argparse fields (kernel, tiles, platform shape, noise, seed, …) into
constructors by hand; the spec centralises that plumbing.  It is also the
run-metadata header of every trace file (``--trace``), so a recorded run
carries its full instance description and can be re-materialised with
:meth:`ExperimentSpec.from_dict`.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.graphs import make_dag
from repro.graphs import workloads as graph_workloads
from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.graphs.workloads import MIXABLE_FAMILIES
from repro.platforms import Platform, make_noise
from repro.platforms.noise import NoiseModel

#: kernels make_dag understands (mirrors the CLI choices)
KERNELS = ("cholesky", "lu", "qr")
NOISE_MODELS = ("gaussian", "lognormal", "uniform", "gamma", "none")
#: job-arrival models of the streaming environment
ARRIVALS = ("none", "poisson", "trace")
#: reward modes only the streaming (multi-job) environment understands
STREAMING_REWARD_MODES = ("jct", "slowdown", "makespan")

#: WorkloadSpec fields that pre-streaming spec dicts carried at top level
_LOOSE_WORKLOAD_KEYS = ("kernel", "tiles", "noise", "sigma")


# ---------------------------------------------------------------------- #
# conversions shared by the three spec dataclasses
# ---------------------------------------------------------------------- #


def _from_args(cls, args: Any):
    """``cls`` from the attributes of ``args`` that are present and not None."""
    return cls(**{
        f.name: getattr(args, f.name)
        for f in fields(cls)
        if getattr(args, f.name, None) is not None
    })


def _strict_from_dict(cls, data: Dict[str, Any]):
    """``cls(**data)``, naming the closest field of any unknown key."""
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            close = difflib.get_close_matches(key, names, n=1)
            hint = f" — did you mean {close[0]!r}?" if close else (
                f"; valid keys: {', '.join(names)}"
            )
            raise ValueError(f"unknown {cls.__name__} key {key!r}{hint}")
    return cls(**data)


def _json_object(payload: str) -> Dict[str, Any]:
    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError(
            f"spec JSON must decode to an object, got {type(data).__name__}"
        )
    return data


def _to_json(spec: Any) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


def _replace(spec: Any, changes: Dict[str, Any]):
    """A copy of ``spec`` with ``changes`` applied."""
    merged = {f.name: getattr(spec, f.name) for f in fields(spec)}
    merged.update(changes)
    return type(spec)(**merged)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of the job distribution of one experiment.

    The graph-family mixture (resolved through the
    :mod:`repro.graphs.workloads` registry), the duration-noise model, the
    job arrival process and the episode horizon.  Like :class:`ServeSpec`,
    :meth:`from_dict` **rejects** unknown keys with a did-you-mean hint: a
    typo'd arrival knob silently falling back to its default would change
    the whole workload.
    """

    name: str = "single"
    """registry name (:func:`repro.graphs.workloads.available` lists them)"""
    kernel: str = "cholesky"
    """DAG family for the ``single``/``size-mixture`` workloads"""
    tiles: int = 4
    """tile count of the ``single`` workload"""
    tile_choices: Tuple[int, ...] = ()
    """tile counts sampled by ``size-mixture``/``mixed-families``
    (empty = the workload factory's default)"""
    families: Tuple[str, ...] = ()
    """families mixed by ``mixed-families`` (empty = cholesky/lu/qr)"""
    noise: str = "gaussian"
    sigma: float = 0.0
    arrival: str = "none"
    """job arrival model: ``none`` (one job at t=0, the static setting),
    ``poisson`` (exponential inter-arrivals at :attr:`rate`), or ``trace``
    (explicit arrival instants from :attr:`trace`/:attr:`trace_file`)"""
    rate: float = 0.002
    """Poisson arrival rate in jobs per millisecond"""
    trace: Tuple[float, ...] = ()
    """explicit arrival instants (ms, non-decreasing); defines the job count"""
    trace_file: Optional[str] = None
    """path of a text file with one arrival instant per line (alternative to
    an inline :attr:`trace`)"""
    num_jobs: int = 4
    """episode horizon for ``poisson`` arrivals: jobs per episode (a trace's
    length defines its own horizon)"""
    horizon_time: Optional[float] = None
    """optional time horizon: arrivals sampled after it are dropped, so an
    episode ends once every job admitted before the horizon completes"""

    def __post_init__(self) -> None:
        # tolerate list-valued sequence fields (the JSON spelling)
        for key in ("tile_choices", "families", "trace"):
            value = getattr(self, key)
            if not isinstance(value, tuple):
                object.__setattr__(self, key, tuple(value))
        object.__setattr__(
            self, "trace", tuple(float(t) for t in self.trace)
        )
        graph_workloads.get_entry(self.name)  # unknown names raise with list
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.noise not in NOISE_MODELS:
            raise ValueError(f"noise must be one of {NOISE_MODELS}, got {self.noise!r}")
        if self.tiles < 1:
            raise ValueError(f"tiles must be >= 1, got {self.tiles}")
        if any(t < 1 for t in self.tile_choices):
            raise ValueError(f"tile_choices must all be >= 1, got {self.tile_choices}")
        for family in self.families:
            if family not in MIXABLE_FAMILIES:
                raise ValueError(
                    f"families must be among {MIXABLE_FAMILIES}, got {family!r}"
                )
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.trace and self.trace_file:
            raise ValueError("give either trace or trace_file, not both")
        if self.arrival == "trace" and not self.trace and not self.trace_file:
            raise ValueError("arrival='trace' needs a trace or a trace_file")
        if self.trace:
            if any(t < 0 for t in self.trace):
                raise ValueError(f"trace instants must be >= 0, got {self.trace}")
            if any(b < a for a, b in zip(self.trace, self.trace[1:])):
                raise ValueError(f"trace must be non-decreasing, got {self.trace}")
        if self.num_jobs < 1:
            raise ValueError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if self.horizon_time is not None and self.horizon_time <= 0:
            raise ValueError(
                f"horizon_time must be > 0, got {self.horizon_time}"
            )

    # ------------------------------------------------------------------ #

    @property
    def is_streaming(self) -> bool:
        """Whether this workload describes a multi-job (streaming) episode."""
        return self.arrival != "none"

    def make_workload(self) -> graph_workloads.Workload:
        """Resolve the registry entry into a runtime :class:`Workload`."""
        if self.name == "single":
            return graph_workloads.get("single", kernel=self.kernel, tiles=self.tiles)
        if self.name == "size-mixture":
            kwargs: Dict[str, Any] = {"kernel": self.kernel}
            if self.tile_choices:
                kwargs["tile_choices"] = self.tile_choices
            return graph_workloads.get("size-mixture", **kwargs)
        if self.name == "mixed-families":
            kwargs = {}
            if self.families:
                kwargs["families"] = self.families
            if self.tile_choices:
                kwargs["tile_choices"] = self.tile_choices
            return graph_workloads.get("mixed-families", **kwargs)
        # remaining built-ins and future registrations: default parameters
        return graph_workloads.get(self.name)

    def make_noise_model(self) -> NoiseModel:
        """The duration-noise model of this workload."""
        return make_noise(self.noise if self.sigma > 0 else "none", self.sigma)

    def make_arrival(self):
        """The :class:`~repro.sim.streaming.ArrivalProcess`, or ``None``."""
        from repro.sim.streaming import PoissonArrivals, TraceArrivals

        if self.arrival == "none":
            return None
        if self.arrival == "poisson":
            return PoissonArrivals(self.rate)
        if self.trace_file is not None:
            return TraceArrivals.from_file(self.trace_file)
        return TraceArrivals(self.trace)

    # ------------------------------------------------------------------ #
    # conversions (strict unknown keys, mirroring ServeSpec)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict`; **unknown keys are an error**::

            WorkloadSpec.from_dict({"arival": "poisson"})
            ValueError: unknown WorkloadSpec key 'arival' — did you mean 'arrival'?
        """
        return _strict_from_dict(cls, data)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: str) -> "WorkloadSpec":
        return cls.from_dict(_json_object(payload))

    def to_json(self) -> str:
        return _to_json(self)

    def replace(self, **changes: Any) -> "WorkloadSpec":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return _replace(self, changes)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one (instance, environment, run) cell."""

    cpus: int = 2
    gpus: int = 2
    seed: int = 0
    window: int = 2
    sparse_state: bool = False
    num_envs: int = 1
    reward_mode: str = "dense"
    checkpoint_every: int = 0
    """write a training checkpoint every N updates (0 = never)"""
    resume: Optional[str] = None
    """path of a training checkpoint to resume from (None = fresh run)"""
    workload: WorkloadSpec = WorkloadSpec()
    """the instance: graph mixture, duration noise and job arrivals (a dict
    is converted with :meth:`WorkloadSpec.from_dict`)"""

    def __post_init__(self) -> None:
        if isinstance(self.workload, dict):
            object.__setattr__(self, "workload", WorkloadSpec.from_dict(self.workload))
        if self.cpus < 0 or self.gpus < 0 or self.cpus + self.gpus < 1:
            raise ValueError(
                f"platform needs >= 1 processor, got cpus={self.cpus} gpus={self.gpus}"
            )
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {self.num_envs}")
        valid_rewards = ("dense", "terminal") + STREAMING_REWARD_MODES
        if self.reward_mode not in valid_rewards:
            raise ValueError(
                f"reward_mode must be one of {valid_rewards}, got {self.reward_mode!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.resume is not None and not isinstance(self.resume, str):
            raise ValueError(
                f"resume must be None or a checkpoint path, got {self.resume!r}"
            )
        streaming = self.workload.is_streaming
        if self.reward_mode in STREAMING_REWARD_MODES and not streaming:
            raise ValueError(
                f"reward_mode {self.reward_mode!r} needs a streaming workload "
                f"(arrival != 'none'); this workload is static"
            )
        if streaming and self.reward_mode in ("dense", "terminal"):
            # streaming episodes have no single-DAG makespan objective; the
            # dense/terminal defaults map onto their multi-job analogues
            object.__setattr__(
                self,
                "reward_mode",
                {"dense": "jct", "terminal": "makespan"}[self.reward_mode],
            )

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_args(cls, args: Any) -> "ExperimentSpec":
        """Build a spec from an argparse namespace (or any attribute bag).

        Only the attributes present on ``args`` are consumed — subcommands
        that lack e.g. ``--num-envs`` fall back to the field default, so one
        constructor serves every CLI surface.
        """
        return _from_args(cls, args)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys are ignored, with two
        refusals (``ValueError``) for keys that would otherwise change the
        run without a word:

        - ``workers`` other than 1, written while the multiprocess rollout
          pool existed, rather than silently becoming a single-process run
          with different RNG streams;
        - loose ``kernel``/``tiles``/``noise``/``sigma`` keys with no nested
          ``workload`` block (pre-streaming trace headers and checkpoints),
          rather than silently describing the default instance.  Next to a
          ``workload`` block they are ignored like any unknown key.
        """
        workers = data.get("workers", 1)
        if workers != 1:
            raise ValueError(
                f"spec asks for workers={workers!r}, but the multiprocess "
                "rollout pool has been removed; train in one process and "
                "raise num_envs to batch more environments per update"
            )
        loose = [k for k in _LOOSE_WORKLOAD_KEYS if k in data]
        if loose and "workload" not in data:
            raise ValueError(
                f"spec carries {', '.join(map(repr, loose))} at top level "
                "with no 'workload' block; nest them in a 'workload' block, "
                "e.g. {\"workload\": {\"name\": \"single\", \"tiles\": 4}}"
            )
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form — the run-metadata header of trace files."""
        return asdict(self)

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(_json_object(payload))

    def to_json(self) -> str:
        """The spec as a JSON object string (round-trips via :meth:`from_json`)."""
        return _to_json(self)

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return _replace(self, changes)

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #

    def make_instance(
        self,
    ) -> Tuple[TaskGraph, Platform, DurationTable, NoiseModel]:
        """Build ``(graph, platform, durations, noise)`` for this cell.

        For the ``single`` workload the graph is the fixed instance (the
        historical behaviour); for sampling workloads one instance is drawn
        with a generator seeded from :attr:`seed`.  Streaming workloads have
        no single-graph materialisation — use :meth:`make_env`.
        """
        platform = Platform(self.cpus, self.gpus)
        noise = self.workload.make_noise_model()
        if self.workload.name == "single":
            return (
                make_dag(self.workload.kernel, self.workload.tiles),
                platform,
                self.workload.make_workload().durations,
                noise,
            )
        from repro.utils.seeding import as_generator

        wl = self.workload.make_workload()
        return wl.sample(as_generator(self.seed)), platform, wl.durations, noise

    def make_env(self, rng: Optional[Any] = None):
        """A single environment for this cell.

        A :class:`~repro.sim.env.SchedulingEnv` for static workloads, a
        :class:`~repro.sim.streaming.StreamingSchedulingEnv` when the
        workload declares a job-arrival process.  ``rng`` defaults to
        :attr:`seed`; pass a generator for members of a vectorised
        environment.
        """
        from repro.sim.env import SchedulingEnv  # local: avoid import cycle

        wl_spec = self.workload
        platform = Platform(self.cpus, self.gpus)
        if wl_spec.is_streaming:
            from repro.sim.streaming import StreamingSchedulingEnv

            return StreamingSchedulingEnv(
                wl_spec.make_workload(),
                platform,
                arrival=wl_spec.make_arrival(),
                num_jobs=None if wl_spec.arrival == "trace" else wl_spec.num_jobs,
                noise=wl_spec.make_noise_model(),
                window=self.window,
                rng=self.seed if rng is None else rng,
                reward_mode=self.reward_mode,
                sparse_state=self.sparse_state,
                horizon_time=wl_spec.horizon_time,
            )
        if wl_spec.name == "single":
            graph, platform, durations, noise = self.make_instance()
            source: Any = graph
        else:
            wl = wl_spec.make_workload()
            source, durations = wl.sample, wl.durations
            noise = wl_spec.make_noise_model()
        return SchedulingEnv(
            source,
            platform,
            durations,
            noise,
            window=self.window,
            rng=self.seed if rng is None else rng,
            reward_mode=self.reward_mode,
            sparse_state=self.sparse_state,
        )

    def make_train_env(self):
        """The training environment: single env, or K lockstep members.

        Returns a single environment when ``num_envs == 1`` (the bit-exact
        historical path) and a :class:`~repro.sim.vec_env.VecSchedulingEnv`
        (or its streaming variant) otherwise, with member seeds spawned from
        :attr:`seed`.
        """
        from repro.sim.vec_env import VecSchedulingEnv
        from repro.utils.seeding import spawn_generators

        if self.num_envs == 1:
            return self.make_env()
        members = [
            self.make_env(rng=rng)
            for rng in spawn_generators(self.seed, self.num_envs)
        ]
        if self.workload.is_streaming:
            from repro.sim.streaming import VecStreamingEnv

            return VecStreamingEnv(members)
        return VecSchedulingEnv(members)


@dataclass(frozen=True)
class ServeSpec:
    """Declarative description of one decision-server deployment.

    The sibling of :class:`ExperimentSpec` for the serving surface
    (:mod:`repro.serve`): transport endpoint plus the micro-batching,
    backpressure and deadline knobs, with the same JSON round-trip
    guarantees.  One deliberate difference: :meth:`from_dict` **rejects**
    unknown keys (with a did-you-mean hint) instead of ignoring them — a
    typo'd batching knob silently falling back to its default would change
    latency behaviour without any visible error, whereas the experiment
    spec's extra keys are just trace-header metadata.
    """

    host: str = "127.0.0.1"
    """TCP bind address (loopback by default — the server is not hardened
    for untrusted networks)"""
    port: int = 8641
    """TCP port; 0 lets the OS pick (the bound port is logged/returned)"""
    unix_socket: Optional[str] = None
    """filesystem path for an AF_UNIX endpoint; when set it replaces TCP"""
    max_batch: int = 32
    """flush the decision queue at this many collected requests (1 disables
    cross-episode batching — every request answered by its own forward)"""
    max_wait_us: int = 2000
    """longest a flush keeps collecting after its first request, in
    microseconds (a flush goes out earlier once the event loop has no new
    request for it; 0 flushes what is queued without collecting)"""
    queue_cap: int = 256
    """pending-request cap; arrivals beyond it get RETRY_AFTER replies"""
    deadline_ms: float = 1000.0
    """default per-request deadline; requests may lower (not raise) it"""

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.unix_socket is not None and not isinstance(self.unix_socket, str):
            raise ValueError(
                f"unix_socket must be None or a path, got {self.unix_socket!r}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {self.queue_cap}")
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")

    # ------------------------------------------------------------------ #
    # conversions (mirroring ExperimentSpec, with strict unknown keys)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_args(cls, args: Any) -> "ServeSpec":
        """Build from an argparse namespace (or any attribute bag)."""
        return _from_args(cls, args)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeSpec":
        """Inverse of :meth:`to_dict`; **unknown keys are an error**.

        The error names the closest real field when one is plausible::

            ServeSpec.from_dict({"max_batchs": 8})
            ValueError: unknown ServeSpec key 'max_batchs' — did you mean 'max_batch'?
        """
        return _strict_from_dict(cls, data)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: str) -> "ServeSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(_json_object(payload))

    def to_json(self) -> str:
        """The spec as a JSON object string (round-trips via :meth:`from_json`)."""
        return _to_json(self)

    def replace(self, **changes: Any) -> "ServeSpec":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return _replace(self, changes)


# ---------------------------------------------------------------------- #
# spec-first constructors (the one true entrypoints)
# ---------------------------------------------------------------------- #


def make_env(spec: ExperimentSpec, rng: Optional[Any] = None):
    """A single :class:`~repro.sim.env.SchedulingEnv` described by ``spec``.

    The spec-first construction API: every experiment surface (CLI, trainer,
    eval harness) builds environments through a spec rather than by
    re-plumbing loose kwargs.  ``rng`` overrides :attr:`ExperimentSpec.seed`
    for members of vectorised envs.
    """
    return spec.make_env(rng=rng)


def make_train_env(spec: ExperimentSpec):
    """The training environment of ``spec`` — single env or K lockstep members."""
    return spec.make_train_env()
