"""Simulated MPI runtime — the substrate the C3 coordination layer sits on.

Public surface:

* :func:`run_job` / :class:`Engine` — launch an SPMD job.  Ranks always
  run as fibers under the deterministic cooperative scheduler (one rank
  at a time; scales to the paper's 256+ process counts); ``engine=``
  picks how many processes carry those loops — one (``cooperative``,
  the default) or one real OS process per node with real SIGKILL
  faults (``processes[:N]``).
* :class:`MPI` — the per-rank facade handed to application ``main(mpi)``.
* :mod:`~repro.mpi.timemodel` — virtual-time machine models (Lemieux,
  Velocity 2, CMI, the Table-1 uniprocessors, and a testing model).
* :class:`FaultPlan` / :class:`FaultSpec` — fail-stop fault injection.
"""

from .api import MPI
from .communicator import Communicator, Group, CartComm, PROC_NULL
from .datatypes import (
    BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE, COMPLEX, DOUBLE_COMPLEX,
    ContiguousType, Datatype, IndexedType, NamedType, StructType, VectorType,
    from_numpy_dtype,
)
from .engine import Engine, JobResult, RankContext, resolve_backend, run_job
from .scheduler import CooperativeScheduler
from .errors import (
    DeadlockError, InvalidCommunicatorError, InvalidDatatypeError,
    InvalidRankError, InvalidRequestError, InvalidTagError, JobAborted,
    MPIError, ProcessFailure, SimulationError, TruncationError,
)
from .faults import FaultPlan, FaultSpec
from .matching import ANY_SOURCE, ANY_TAG
from .message import Envelope, MessageSignature
from .ops import MAX, MAXLOC, MIN, MINLOC, PROD, SUM, Op
from .requests import Request
from .status import Status
from .timemodel import (
    CMI, LEMIEUX, LINUX_UNIPROC, MACHINES, MachineModel, SOLARIS_UNIPROC,
    TESTING, VELOCITY2,
)

__all__ = [
    "MPI", "Communicator", "Group", "CartComm", "PROC_NULL",
    "Engine", "JobResult", "RankContext", "run_job", "resolve_backend",
    "CooperativeScheduler",
    "FaultPlan", "FaultSpec",
    "ANY_SOURCE", "ANY_TAG", "Envelope", "MessageSignature",
    "Op", "SUM", "PROD", "MAX", "MIN", "MAXLOC", "MINLOC",
    "Request", "Status",
    "Datatype", "NamedType", "ContiguousType", "VectorType", "IndexedType",
    "StructType", "from_numpy_dtype",
    "BYTE", "CHAR", "SHORT", "INT", "LONG", "FLOAT", "DOUBLE", "COMPLEX",
    "DOUBLE_COMPLEX",
    "MachineModel", "MACHINES", "LEMIEUX", "VELOCITY2", "CMI",
    "SOLARIS_UNIPROC", "LINUX_UNIPROC", "TESTING",
    "MPIError", "SimulationError", "ProcessFailure", "JobAborted",
    "DeadlockError", "TruncationError", "InvalidRankError", "InvalidTagError",
    "InvalidDatatypeError", "InvalidCommunicatorError", "InvalidRequestError",
]
