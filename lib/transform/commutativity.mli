(** Commutativity knowledge (§5.2).

    Data dependence alone cannot block LU with partial pivoting: moving
    the row interchanges of later elimination steps ahead of earlier
    column updates reverses a dependence.  But a row interchange
    commutes with a whole-column update — both versions compute the same
    final values, though intermediate values flow through different
    locations.  The paper proposes pattern matching to recognize this
    pair of operations and license ignoring the preventing recurrence.

    This module derives the fact instead: it instantiates the
    dependence's source and sink statements at two generic iterations
    [theta1 < theta2] of the carrying loop, recovers range facts for the
    integer scalars each instance reads from its body prefix (e.g. the
    pivot row after the search), and asks {!Fsa.commute} whether the
    instances commute — a machine-checked proof, traced as an [Obs]
    decision with the proof tree as evidence.  (The paper's syntactic
    matcher survives only as a test oracle.) *)

val may_ignore :
  dctx:Derivation.t -> ctx:Symbolic.t -> Stmt.loop -> Dependence.t -> bool
(** True when the dependence connects two distinct immediate body
    statements of the loop whose generic instances provably commute.
    [ctx] carries the facts valid at the loop's execution point (the
    blocker passes its universal context).  Verdicts are memoized per
    (loop, statement pair, facts) in [dctx]'s verdict memo; fresh
    instance names ([K.1], [K.2], ...) come from [dctx]. *)
