"""growcl: a continual-learning engine with a grow-or-reuse prompt pool.

The engine trains small prompt tensors against a frozen encoder over a
class-incremental task stream, stores SVD bases of per-layer features in a
subspace memory, and decides per task whether to grow a new prompt set or
fold the task into an existing one based on hindrance angles between probe
gradients and stored subspaces.
"""

__version__ = "0.1.0"
