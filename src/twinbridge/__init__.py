"""twinbridge: digital-twin synchronization and prioritized topic bridging.

A desk-scale toolkit pairing a physics-aware physical/virtual state
synchronizer with a prioritized, fault-tolerant topic bridge running over a
deterministic simulated network, plus the geodetic and LiDAR transforms used
to build the virtual environment and a multi-metric configuration optimizer.
"""

__version__ = "0.1.0"
