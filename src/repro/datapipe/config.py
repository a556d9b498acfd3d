"""The ``pipeline=off|depth-N`` knob shared by trainer, serving, and bench."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed pipeline knob: ``depth == 0`` means the serial schedule."""

    depth: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise BenchmarkError("pipeline depth must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.depth > 0

    def describe(self) -> str:
        return f"depth-{self.depth}" if self.enabled else "off"


def parse_pipeline(spec: str) -> PipelineConfig:
    """Parse ``"off"`` or ``"depth-N"`` (N >= 1) into a config."""
    if spec == "off":
        return PipelineConfig(0)
    if spec.startswith("depth-"):
        try:
            depth = int(spec[len("depth-"):])
        except ValueError:
            depth = 0
        if depth >= 1:
            return PipelineConfig(depth)
    raise BenchmarkError(
        f"unknown pipeline spec {spec!r}; expected 'off' or 'depth-N' (N >= 1)"
    )


#: Placements that sample on-device: the datapipe pipelines *CPU-side*
#: sampling, so combining them with ``depth-N`` is a contradiction.
ON_DEVICE_PLACEMENTS = ("gpu", "uvagpu")


def validate_pipeline_placement(pipeline: str, placement: str) -> PipelineConfig:
    """The single pipeline × placement validation path (trainer, serve).

    Parses the ``pipeline`` spec and rejects ``depth-N`` under the
    on-device sampling placements (``gpu``/``uvagpu``) — those sample on
    the GPU already, so there is no CPU-side stage to pipeline.
    :class:`TrainConfig` and ``ServeConfig`` call it when they are built,
    before any machine exists, so the CLI reports it as exit 2.
    """
    config = parse_pipeline(pipeline)
    if config.enabled and placement in ON_DEVICE_PLACEMENTS:
        raise BenchmarkError(
            f"--pipeline {pipeline} cannot be combined with "
            f"--placement {placement}: the datapipe pipelines CPU-side "
            "sampling; GPU/UVA placements sample on-device already"
        )
    return config
