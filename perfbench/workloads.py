"""Workload definitions: the CLI command, the config file text it runs with,
and the geometry the set-up probe rebuilds. See README.md for why each
workload exists and which layers it exercises."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # windlayout subcommand
    case: str  # scenario preset
    cells: int  # cells per grid side
    side: float  # m, grid side of the set-up probe (the sweep's first edge * cells)
    turbines: int
    population: int
    generations: int
    edges: tuple = ()  # sweep only, m
    eta_ops: int = 3  # best_eta averages the first eta_ops ops of a run
    setup_probes: int = 5  # fresh processes timing one set-up each
    rescaled: bool = False  # set-up and op times in reference seconds; see hostspeed.py

    def config_text(self) -> str:
        lines = [
            "[grid]",
            f"side = {self.side!r}",
            f"cells = {self.cells}",
            f"turbines = {self.turbines}",
            "[scenario]",
            f"case = {self.case}",
            "[ga]",
            f"population = {self.population}",
            f"elites = {max(1, self.population // 10)}",
            f"relocations = {self.population * 3 // 10}",
            f"aliens = {self.population // 10}",
            f"max_generations = {self.generations}",
            "target_efficiency = none",
        ]
        if self.edges:
            lines += ["[sweep]", "edges = " + " ".join(repr(e) for e in self.edges), "repeats = 1"]
        return "\n".join(lines) + "\n"

    def toy(self) -> "Workload":
        """Same workload shape at a size that runs in well under a second."""
        edges = (300.0, 250.0, 200.0, 150.0) if self.edges else ()
        side = 6 * edges[0] if edges else 3000.0
        return Workload(self.name, self.command, self.case, 6, side, 5, 20, 6, edges,
                        eta_ops=1, setup_probes=1, rescaled=self.rescaled)


WORKLOADS = {
    w.name: w
    for w in (
        # the searches' op times track the host's slow spells; the sweep's do not (hostspeed.py)
        Workload("search_case4", "optimize", "case4", 20, 4000.0, 16, 120, 100, rescaled=True),
        Workload("search_case1", "optimize", "case1", 20, 4000.0, 16, 120, 100, rescaled=True),
        Workload("sweep_large", "sweep", "case3", 24, 200.0 * 24, 16, 120, 20,
                 edges=(200.0, 180.0, 160.0, 140.0), eta_ops=1, setup_probes=3),
    )
}
