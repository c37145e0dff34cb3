"""Exception bases shared across the package.

Three bases carry the CLI exit-code contract:

  ValidationFailure  exit 1   a mathematical check failed on well-formed input
  InputError         exit 2   the input itself is malformed or unusable
  NumericFailure     exit 3   floating-point machinery gave up (degenerate
                              generators, non-integral ranks, ...)

Concrete conditions subclass one of these in the module that raises them.
"""


class GradedCstarError(Exception):
    exit_code = 1


class ValidationFailure(GradedCstarError):
    exit_code = 1


class InputError(GradedCstarError):
    exit_code = 2


class NumericFailure(GradedCstarError):
    exit_code = 3


class DegenerateGenerator(NumericFailure):
    """A randomized generic-element search ran out of retries.

    Raised only by spectra.brute_force_characters, the character oracle
    the tests compare against, which draws generic elements from a seeded
    stream. No command path draws random numbers.
    """

