"""memctrl: simulation and analysis of memory-aware manipulator control.

Subpackages map to the pipeline stages: plant simulation (dynamics,
ensemble), the parameterised controller and its admissibility shield
(controller, shield), temporal-memory analysis (memory_analysis,
incrt), the memoryless-policy gap (markov_gap), evaluation statistics
(stats) and sweep orchestration (runner, cli).

Importing the package loads none of them; each loads on its first
import (`from memctrl import shield`, `import memctrl.shield`), so a
CLI command pays only for the pipeline it runs.
"""

__all__ = ["config", "controller", "dynamics", "ensemble", "incrt",
           "markov_gap", "memory_analysis", "runner", "shield", "stats"]

__version__ = "0.1.0"
