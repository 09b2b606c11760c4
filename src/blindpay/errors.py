"""Exception types shared across the package."""


class BlindpayError(Exception):
    """Base class for all errors raised by this package."""


# --- group / proof errors ---------------------------------------------------

class MalformedElement(BlindpayError):
    """A value that is supposed to be a subgroup member is not."""


# --- card ledger errors -----------------------------------------------------

class CardError(BlindpayError):
    def __init__(self, card_id: str, message: str):
        super().__init__(message)
        self.card_id = card_id


class UnknownCard(CardError):
    def __init__(self, card_id: str):
        super().__init__(card_id, f"unknown card {card_id!r}")


class NotDistributed(CardError):
    def __init__(self, card_id: str):
        super().__init__(card_id, f"card {card_id!r} was never sold to a store")


class AlreadyDistributed(CardError):
    def __init__(self, card_id: str):
        super().__init__(card_id, f"card {card_id!r} already distributed")


class AlreadySpent(CardError):
    """Double spend.  Carries the sequence number of the first spend but
    deliberately not the account it was credited to."""

    def __init__(self, card_id: str, prior_seq: int):
        super().__init__(card_id, f"card {card_id!r} already spent (ledger seq {prior_seq})")
        self.prior_seq = prior_seq


class LedgerCorrupt(BlindpayError):
    """A ledger file replay or conservation check failed."""


# --- catalog / crypto errors ------------------------------------------------

class AuthenticationFailure(BlindpayError):
    """Authenticated decryption failed: wrong key or tampered ciphertext."""


class CatalogFormatError(BlindpayError):
    """A catalog document could not be parsed."""


class UnknownLicense(BlindpayError):
    """A license id that the catalog does not list."""


# --- purchase errors ----------------------------------------------------------

class InsufficientFunds(BlindpayError):
    pass


class MissingKPower(BlindpayError):
    def __init__(self, t: int):
        super().__init__(f"no published unblinding key for step value {t}")
        self.t = t


class SessionComplete(BlindpayError):
    pass


class IncompleteSession(BlindpayError):
    pass


class SessionStateError(BlindpayError):
    """Session calls arrived out of order."""


class BadStepSignature(BlindpayError):
    """A step response carried an invalid signature.  The offending step, a
    purchase.StepTranscript without its blinding exponent, is kept as
    evidence for arbitration."""

    def __init__(self, step):
        super().__init__("invalid signature on step response")
        self.step = step


class MismatchedFactor(BlindpayError):
    """Upgrade target does not share the owned license's encryption factor."""


class StepRejected(BlindpayError):
    """The seller refused a step (card problem or malformed request)."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"step rejected: {code}" + (f" ({detail})" if detail else ""))
        self.code = code
        self.detail = detail


# --- dispute errors -----------------------------------------------------------

class MalformedEvidence(BlindpayError):
    pass


class ChainLengthMismatch(BlindpayError):
    pass


# --- wire errors --------------------------------------------------------------

class MalformedMessage(BlindpayError):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed message at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class UnknownMessageType(MalformedMessage):
    def __init__(self, offset: int, tag: int):
        MalformedMessage.__init__(self, offset, f"unknown message type {tag}")
        self.tag = tag


class OversizeFrame(BlindpayError):
    def __init__(self, length: int, limit: int):
        super().__init__(f"frame of {length} bytes exceeds limit of {limit}")
        self.length = length
        self.limit = limit


class ConnectionClosed(BlindpayError):
    pass


class WireTimeout(BlindpayError):
    pass


class ServerBusy(BlindpayError):
    """A server holds as many connections as it may; one more is refused."""


# --- harness errors -----------------------------------------------------------

class ScenarioInvalid(BlindpayError):
    pass
