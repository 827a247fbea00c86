(** SP 800-90B-style startup/continuous health tests.

    Real RDRAND hardware has failed in the field (stuck-at all-ones on
    several AMD steppings), and NIST SP 800-90B §4.4 requires every
    entropy source to run two cheap continuous tests so such failures
    are caught within a bounded number of samples:

    - the {e repetition count test} (RCT) fails when the same sample
      value repeats [rct_cutoff] times in a row — the canonical
      stuck-at detector;
    - the {e adaptive proportion test} (APT) fails when, within a
      window of [apt_window] samples, the window's first sample value
      recurs [apt_cutoff] or more times — catching sources that are
      not stuck but heavily biased.

    The APT here runs on the {e low byte} of each 64-bit sample, so a
    source whose high bits stay random while the low bits freeze (the
    "biased low bits" failure mode) is still caught; a full-width APT
    would never see two equal samples.

    Feeding samples never perturbs them — a generator with health
    tests enabled produces exactly the draw stream it produces with
    them disabled, until the moment a test fails.  The default cutoffs
    are chosen so a healthy uniform source fails with probability
    < 1e-13 per window (never, in any plausible experiment), while a
    stuck source fails within [rct_cutoff] draws and an 8-bit-biased
    source within one window. *)

type t

val create : unit -> t
(** A fresh state.  The RCT fails on 5 identical consecutive samples
    ([rct_cutoff]); the APT fails on 20 recurrences of a low byte within
    a window of 512 samples. *)

val feed : t -> int64 -> string option
(** Observe one sample.  [None] while the source looks healthy;
    [Some reason] the first time a test fails.  After a failure the
    state keeps reporting failures until {!reset}. *)

val reset : t -> unit
(** Forget all history (used when a generator switches to a fallback
    source: the new source starts with a clean bill of health). *)
