(** The state one derivation threads through the analyses.

    A derivation (blocking one kernel, from point IR to blocked IR) needs
    prover tables for {!Symbolic}, fresh-name counters for the
    commutativity prover and {!Fsa}'s generic iterations, and a memo of
    commutativity verdicts.  They travel in a value of type {!t},
    created per derivation and passed explicitly, so derivations on
    different domains share nothing but the verdict memo, which is
    domain-safe.

    The prover tables and counters live exactly as long as the
    derivation: its prover memory is dropped with it, and every
    derivation of a kernel names its proof obligations the same way.
    The verdict memo is supplied by the caller and may outlive many
    derivations: a process or server keeps one so a second kernel with
    the same proof obligations does not prove them again. *)

type verdicts
(** Commutativity verdicts — [(commutes, proof or reason)] keyed by the
    obligation's text.  Safe to share between domains. *)

val verdicts : unit -> verdicts
(** A fresh, empty verdict memo. *)

type t

val create : ?verdicts:verdicts -> unit -> t
(** A fresh derivation: empty prover tables, counters at zero, and
    [verdicts] (default: a fresh memo private to this derivation). *)

val symbolic : t -> Symbolic.t
(** The empty fact context answering through this derivation's prover
    tables; every context grown from it shares them. *)

val bind : t -> Symbolic.t -> Symbolic.t
(** [bind d ctx]: [ctx]'s facts, answering through [d]'s prover tables. *)

val fresh_theta : t -> string -> string
(** [fresh_theta d "K"] is ["K.1"], ["K.2"], ...: names for generic
    instances of a loop index, unique within the derivation. *)

val fresh_generic : t -> string -> string
(** Like {!fresh_theta} on a separate counter: ["K.g1"], ["K.g2"], ... *)

val verdict : t -> string -> (unit -> bool * string) -> bool * string
(** [verdict d key prove]: the verdict memoized under [key], else
    [prove ()]'s, memoized.  On a hit the fresh-name counters advance by
    as many names as [prove] took when it ran, so a derivation names its
    obligations the same way whether the memo answers them or not. *)
