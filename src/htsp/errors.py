"""Exception types shared across the package."""


class HtspError(Exception):
    """Base class for all errors raised by this package."""


# --- instance parsing / validation ---

class ParseError(HtspError):
    """Malformed instance text."""


class DegreeError(HtspError):
    """A vertex of the support graph does not have degree 4."""


class ConnectivityError(HtspError):
    """The support graph is not 4-edge-connected."""


class SpecialTripleError(HtspError):
    """Strict mode requires parallel pairs r0-u0 and r0-v0 on vertices 0,1,2."""


class EmptyShore(HtspError):
    """Cut query with an empty shore."""


class FullShore(HtspError):
    """Cut query with a shore equal to the whole vertex set."""


# --- structure discovery ---

class SizeLimitExceeded(HtspError):
    """Graph too large for exact enumeration."""


# --- matching / shifting ---

class NoPerfectMatching(HtspError):
    """No perfect matching exists; signals an invalid piece."""


class ColoringOverflow(HtspError):
    """Greedy coloring needed more than 7 colors; signals an invalid piece."""


# --- tree sampling ---

class InfeasibleShift(HtspError):
    """Shifted marginals admit no exact constrained-tree decomposition."""


class BoundaryTarget(HtspError):
    """A max-entropy fit target is 0/1 or infeasible and was not pre-processed."""


class NonConvergence(HtspError):
    """Max-entropy weight fitting hit the iteration cap."""


class NumericalBreakdown(HtspError):
    """The max-entropy fit met a singular weighted Laplacian minor or a
    nonpositive fitted marginal."""


# --- assembly / join ---

class AssemblyError(HtspError):
    """The union of piece samples is not a valid rooted tree."""


class EstimateBelowBound(HtspError):
    """An even-at-last probability estimate fell below its guaranteed bound."""


class FlowInfeasible(HtspError):
    """The charge-routing flow has no feasible assignment at the required load."""


class FeasibilityViolation(HtspError):
    """A join vector violates a min-cut constraint."""


class OddSetTooLarge(HtspError):
    """Too many odd vertices for exact minimum-cost join computation."""


class HelperLost(HtspError):
    """A helper process of a Monte Carlo run ended before it returned its
    chunks."""


class ScaleOverflow(HtspError):
    """Costs or charge quanta scale past what exact int64 sums hold."""


class LpFailure(HtspError):
    """The reduction-parameter program has no certified exact optimum."""


class ConfigError(HtspError, ValueError):
    """An experiment lacks an instance source, names an unknown suite or
    sampler, asks for a mix outside [0, 1], or hands a suite a run made
    without the flags it needs."""


# --- generators ---

class GenerationFailure(HtspError):
    """Instance generator exhausted its retry budget."""
