"""The objectives as they stood before instances._max_norm: eval_norm on
every machine's (or client's) vector in turn.  Kept as the reference
instances.eval_load_objective and eval_cluster_objective are checked
against, value for value and error for error.
"""

from maxnorm.instances import connection_vectors, machine_size_vectors
from maxnorm.norms import eval_norm


def eval_load_objective(inst, norm, assignment):
    """max over machines of the norm of assigned job sizes."""
    return max(eval_norm(norm, v) for v in machine_size_vectors(inst, assignment))


def eval_cluster_objective(inst, norm, solution):
    """max over clients of the norm of connection distances."""
    return max(eval_norm(norm, v) for v in connection_vectors(inst, solution))
