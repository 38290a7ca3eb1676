(** Blocking drivers: compositions of the primitive transformations that
    derive the paper's block algorithms from point algorithms.

    Every driver is mechanical: it locates loops structurally, asks the
    dependence/section analyses for legality, and applies the primitive
    transformations.  Planning heuristics may assume full blocks
    ([K + KS <= N]) — the emitted code never depends on that assumption
    (bounds carry MIN/MAX guards), and distribution legality is
    re-checked under universally valid facts only. *)

type trace_step = { name : string; detail : string; after : Stmt.t list }

type 'a traced = { result : 'a; steps : trace_step list }

val strip_mine_and_interchange :
  block_size:Expr.t ->
  new_index:string ->
  levels:int ->
  Stmt.loop ->
  (Stmt.loop, string) result
(** §2.3: strip-mine the outer loop of a perfect nest and sink the strip
    loop inward [levels] positions (rectangular or triangular
    interchange chosen per level). *)

val block_lu :
  dctx:Derivation.t ->
  block_size_var:string ->
  Stmt.loop ->
  (Stmt.t traced, string) result
(** §5.1: derive block LU decomposition (Figure 6) from the point
    algorithm.  Each LU derivation here runs within [dctx], whose
    prover tables answer its analyses' queries.  The input must be the
    point LU K-loop whose body is [scale loop; update nest].  Steps
    performed and checked:

    + strip-mine K by the symbolic block size;
    + attempt distribution of the strip loop — the analysis must report
      the preventing recurrence;
    + Procedure IndexSetSplit finds the split point for the update's
      column loop (sections of the recurrence's endpoints);
    + index-set split + bound simplification;
    + distribution (now provably legal via section disjointness);
    + interchange the strip loop to the innermost position of the
      wide-column nest (rectangular, then triangular). *)

val block_lu_with :
  dctx:Derivation.t ->
  may_ignore:(ctx:Symbolic.t -> Stmt.loop -> Dependence.t -> bool) ->
  block_size_var:string ->
  Stmt.loop ->
  (Stmt.t traced, string) result
(** The derivation behind {!block_lu} and {!block_lu_pivot}:
    distribution of the strip loop may ignore the dependences
    [may_ignore] licenses (given the universal facts and the strip
    loop).  {!block_lu} ignores none; {!block_lu_pivot} asks
    {!Commutativity.may_ignore}; tests pass oracles. *)

val block_lu_pivot :
  dctx:Derivation.t ->
  block_size_var:string ->
  Stmt.loop ->
  (Stmt.t traced, string) result
(** §5.2: same derivation for LU with partial pivoting.  Plain
    dependence-based distribution must fail (the row-swap recurrence);
    it then asks {!Commutativity.may_ignore}, within the
    derivation [dctx] (fresh names, verdict memo), to license ignoring
    dependences between row interchanges and whole-column updates,
    after which distribution proceeds and yields Figure 8. *)

val block_lu_opt :
  dctx:Derivation.t ->
  block_size_var:string ->
  factor:int ->
  Stmt.loop ->
  (Stmt.t traced, string) result
(** §5.1 Table 3's "2+": {!block_lu}, then register blocking of the
    trailing update — MIN/MAX removal splits the update's row loop into
    its triangular and rectangular regions, the shape-matched
    unroll-and-jam runs on each, and scalar replacement promotes
    loop-invariant references in every innermost loop.  Blocking alone
    only reorganizes misses ("2" is within ~8% of point in the paper);
    this is the variant whose measured speedups the paper reports. *)

val block_lu_pivot_opt :
  dctx:Derivation.t ->
  block_size_var:string ->
  factor:int ->
  Stmt.loop ->
  (Stmt.t traced, string) result
(** §5.2 Table 4's "1+": {!block_lu_pivot}, then the same register
    blocking {!block_lu_opt} applies to plain LU — unroll-and-jam on
    the MIN/MAX-free regions of the trailing update, and scalar
    replacement over {e every} innermost loop, including those under
    the IF-guarded pivot search and row swaps (sites under disjunctive
    bounds use [Symbolic.with_loops_cases] facts). *)

val block_trapezoid :
  ctx:Symbolic.t ->
  factor:int ->
  Stmt.loop ->
  (Stmt.t list traced, string) result
(** §3.2: remove the MIN/MAX bounds by index-set splitting, then apply
    the shape-appropriate unroll-and-jam (triangular, upper-triangular,
    rhomboidal or rectangular) to each region.  [ctx] carries the facts
    that justify the rhomboidal form (e.g. [N2 >= factor - 1]); regions
    that cannot be unrolled are left split but unblocked (partial
    blocking). *)

val choose_block_size : machine:Arch.t -> ?sweep:(int * int) list -> unit -> int
(** The machine-dependent block-size choice the drivers delegate to.
    Without [sweep] this is {!Arch.block_size}'s footprint heuristic.
    With [sweep] — [(block, simulated L1 misses)] pairs from a
    [blockc profile --sweep] run — the measured minimum wins (ties to
    the larger block).  Either way the choice and its evidence are
    recorded as an [Obs] decision, so [blockc explain]-style tooling can
    cite why a block size was picked. *)
