(** Assumption-based comparison of affine forms.

    Section analysis must answer questions like "is [I + IS - 1 <= N]?"
    where [IS] and [N] are symbolic.  A context carries facts of the form
    [affine >= 0]; queries are decided by expressing the query as a
    nonnegative combination of facts (searched to a small depth).  The
    answer [Unknown] is always sound: callers treat it conservatively. *)

type t
(** A conjunction of facts [f >= 0]. *)

val empty : t
(** No facts and no memo.  A context without a memo is never mutated,
    so it is safe to share between domains. *)

type memo
(** Prover answers per canonical fact set, for one derivation (see
    {!Derivation}): contexts that hold the same facts, in any order,
    share them.  Bounded (it starts over after 512 answers), and not
    domain-safe. *)

val create_memo : unit -> memo

val with_memo : memo -> t -> t
(** The same facts, answering through [memo]; every context grown from
    the result shares it.  Answers are unchanged: only the search is
    memoized. *)

val assume_nonneg : t -> Affine.t -> t
val assume_ge : t -> Affine.t -> Affine.t -> t
(** [assume_ge t a b] adds the fact [a >= b]. *)

val assume_le : t -> Affine.t -> Affine.t -> t

val assume_pos : t -> string -> t
(** [assume_pos t v] adds the fact [v >= 1]. *)

val of_loop_context : Stmt.loop list -> t
(** Facts implied by a loop nest when every loop executes at least one
    iteration: for each loop with affine bounds, [index >= lo],
    [index <= hi] and [hi >= lo].  (Used for reasoning *inside* a body;
    emptiness of outer loops makes the body unreachable, so the facts
    hold at every execution point that matters.  Only pass loops that
    enclose every statement under analysis: a possibly-zero-trip inner
    loop's [hi >= lo] does not hold at statements outside it.) *)

val with_loops : t -> Stmt.loop list -> t
(** [with_loops ctx loops] extends [ctx] with the same facts
    {!of_loop_context} derives, for loops known to enclose the
    execution point under analysis.  Bounds are decomposed recursively:
    a MIN in an upper bound (or a MAX in a lower bound) contributes
    every affine arm, and [+]/[-]/scaling by a constant compose, so
    e.g. [hi = MIN(N, K + KS) - 3] yields both [index <= N - 3] and
    [index <= K + KS - 3]. *)

val with_loops_cases : t -> Stmt.loop list -> t list
(** Like {!with_loops}, but keeps the disjunctive structure of the
    awkward sides: a MIN in a {e lower} bound (or a MAX in an upper
    bound) means the index is >= one arm {e or} the other, so the
    context forks.  Returns a nonempty list of contexts whose
    disjunction covers every execution; a property holds iff it is
    provable in EVERY case.  Falls back to the single conjunctive
    context when the case count explodes. *)

val prove_nonneg : t -> Affine.t -> bool
(** [prove_nonneg t e] searches, to depth 8, for [e] as a constant
    [c >= 0] plus a nonnegative integer combination of the facts.  The
    search memoizes the residuals that fail, and the context's memo (if
    any) the answers; the answer does not depend on the order facts
    were assumed in. *)

val prove_ge : t -> Affine.t -> Affine.t -> bool
val prove_gt : t -> Affine.t -> Affine.t -> bool
val prove_le : t -> Affine.t -> Affine.t -> bool
val prove_lt : t -> Affine.t -> Affine.t -> bool
val prove_eq : t -> Affine.t -> Affine.t -> bool

type order = Lt | Le | Eq | Ge | Gt | Unknown

val compare_ : t -> Affine.t -> Affine.t -> order
(** Strongest provable relation between two affine forms. *)

val facts : t -> Affine.t list
val pp : Format.formatter -> t -> unit
