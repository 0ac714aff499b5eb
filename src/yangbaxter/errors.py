"""Exception hierarchy shared by all modules.

Two families: InputError for malformed or out-of-contract input (the CLI
maps these to exit status 2), DomainError for well-formed input that fails
a mathematical precondition (exit status 1, like any other negative
mathematical verdict).
"""


class YangBaxterError(Exception):
    pass


class InputError(YangBaxterError):
    pass


class MalformedTable(InputError):
    pass


class ParseError(InputError):
    pass


class SizeMismatch(InputError):
    pass


class SizeTooLarge(InputError):
    pass


class DomainError(YangBaxterError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotBijective(DomainError):
    pass


class NotNondegenerate(DomainError):
    pass


class NotLeftNondegenerate(DomainError):
    pass


class NotRightNondegenerate(DomainError):
    pass


class SymbolUnavailable(DomainError):
    pass


class NotKPermutational(DomainError):
    pass


class NotKReductive(DomainError):
    pass


class ClosedFormMismatch(DomainError):
    pass


class InvalidQCycle(DomainError):
    pass


class CompatibilityError(DomainError):
    def __init__(self, op, witness):
        super().__init__(f"partition is not compatible with {op}", witness=witness)
        self.op = op
