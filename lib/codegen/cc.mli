(** System-cc back end: compiling {!Emit_c} output and running it
    in-process.

    The pipeline is [cc -std=c99 -O2 -shared -fPIC -ffp-contract=off]
    on the emitted C, then [dlopen] through a small stub.  Objects
    live in the {!Artifact_cache} beside the OCaml plugins; the key is
    the blueprint digest combined with the backend tag, the first line
    of [cc --version] and {!Emit_c.revision}, so switching compilers or
    changing the C emitter invalidates exactly the C half of the cache.
    The compiler's vectorization remarks ([-fopt-info-vec]) are kept as
    [bk_<key>.vec] beside the object and returned as [bk_remarks].

    Execution marshals an {!Env.t} onto the fixed kernel ABI per the
    blueprint's {!Emit_c.manifest}: REAL buffers and scalars are
    passed as direct pointers into the OCaml heap (the runtime lock is
    held across the call, so nothing moves), INTEGER state is copied
    in and out.  Results are bitwise comparable with the interpreter
    and the OCaml backend — that is the point.  Spans: [cc.compile_blueprint]
    around [cc.compile]; [cc.run]. *)

val available : unit -> (unit, string) result
(** [Ok ()] when a C compiler was found (on [PATH] as [cc], or via
    [BLOCKC_CC]); otherwise a one-line reason. *)

val compile_blueprint :
  ?cc:string ->
  name:string ->
  Blueprint.t ->
  (Artifact_cache.compiled, string) result
(** Compile (or fetch from cache) the shared object for a normalized
    blueprint.  Emission only happens on a cache miss.  [cc] overrides
    compiler discovery.  Run the result with
    [bk_run ~bindings:bp.Blueprint.bindings]. *)
