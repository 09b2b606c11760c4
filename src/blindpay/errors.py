"""Exception types shared across the package."""


class BlindpayError(Exception):
    """Base class for all errors raised by this package."""


# --- group / proof errors ---------------------------------------------------

class MalformedElement(BlindpayError):
    """A value that is supposed to be a subgroup member is not."""


# --- card ledger errors -----------------------------------------------------

class CardError(BlindpayError):
    """A card the ledger refuses.  code names the refusal, the same on the
    wire: cards.REFUSALS names each code and message, by the status the
    card is in, and CardLedger._check the two that only a replayed record
    draws.  prior_seq is the ledger seq of an already spent card's spend,
    else 0; the account that spend credited is deliberately not carried."""

    def __init__(self, card_id: str, code: str, message: str, prior_seq: int = 0):
        super().__init__(message)
        self.card_id = card_id
        self.code = code
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


class SessionStateError(BlindpayError):
    """Session calls arrived out of order: a step requested once every unit
    is paid or while the last one awaits its response, a response with no
    request outstanding, or a finish with units still unpaid."""


class BadStepSignature(BlindpayError):
    """A step response carried an invalid signature.  The offending step, a
    purchase.StepTranscript without its blinding exponent, is kept as
    evidence for arbitration."""

    def __init__(self, step):
        super().__init__("invalid signature on step response")
        self.step = step


class StepRejected(BlindpayError):
    """The seller refused a step (card problem or malformed request)."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"step rejected: {code}" + (f" ({detail})" if detail else ""))
        self.code = code
        self.detail = detail


# --- dispute errors -----------------------------------------------------------

class MalformedEvidence(BlindpayError):
    pass


# --- wire errors --------------------------------------------------------------

class MalformedMessage(BlindpayError):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed message at byte {offset}: {reason}")
        self.offset = offset


class OversizeFrame(BlindpayError):
    def __init__(self, length: int, limit: int):
        super().__init__(f"frame of {length} bytes exceeds limit of {limit}")


class ConnectionClosed(BlindpayError):
    pass


class ServerBusy(BlindpayError):
    """A server holds as many connections as it may; one more is refused."""


# --- harness errors -----------------------------------------------------------

class ScenarioInvalid(BlindpayError):
    pass
