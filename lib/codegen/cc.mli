(** System-cc back end: compiling {!Emit_c} output and running it
    in-process.

    The pipeline is [cc -std=c99 -O2 -shared -fPIC -ffp-contract=off]
    on the emitted C, then [dlopen] through a small stub.  Objects
    share the OCaml plugins' content-addressed cache
    ([Jit.cache_dir], [bk_<key>.so] next to [bk_<key>.cmxs]); the key
    is the blueprint digest combined with the backend tag, the first
    line of [cc --version] and {!Emit_c.revision}, so switching
    compilers or changing the C emitter invalidates exactly the C half
    of the cache.  The same
    [BLOCKC_JIT_DISK_CAP] pruning applies after each fresh compile.

    Execution marshals an {!Env.t} onto the fixed kernel ABI per the
    blueprint's {!Emit_c.manifest}: REAL buffers and scalars are
    passed as direct pointers into the OCaml heap (the runtime lock is
    held across the call, so nothing moves), INTEGER state is copied
    in and out.  Results are bitwise comparable with the interpreter
    and the OCaml backend — that is the point. *)

type fn
(** A loaded kernel entry point plus its marshaling manifest. *)

type loaded = {
  key : string;  (** full cache key (blueprint x backend x compiler) *)
  so : string;  (** path of the compiled shared object *)
  cached : bool;
  disposition : Jit.disposition;
  compile_s : float;
  vec_remarks : string list;
      (** the compiler's vectorization remarks ([-fopt-info-vec]),
          persisted as [bk_<key>.vec] beside the object so disk hits
          still report them, and kept in the in-process memo so memo
          hits do not re-read it; [] when the flag is unsupported or
          no loop vectorized *)
  fn : fn;
}

val available : unit -> (unit, string) result
(** [Ok ()] when a C compiler was found (on [PATH] as [cc], or via
    [BLOCKC_CC]); otherwise a one-line reason. *)

val invocations : unit -> int
(** Actual [cc] runs so far in this process (mirrored to
    [Obs.Metrics "cc.invocations"]). *)

val compile_blueprint :
  ?cc:string -> name:string -> Blueprint.t -> (loaded, string) result
(** Compile (or fetch from cache) the shared object for a normalized
    blueprint.  Emission only happens on a cache miss.  [cc] overrides
    compiler discovery.  Run the result with
    {!run}[ ~bindings:bp.Blueprint.bindings]. *)

val run :
  ?bindings:(string * int) list -> fn -> Env.t -> (unit, string) result
(** Execute a loaded kernel against an environment, with the same
    contract as {!Jit.run}: arrays are shared with the environment,
    written scalars are stored back, [bindings] take precedence over
    the environment's integer scalars, and runtime failures (zero
    step, negative SQRT, out-of-bounds checked access) come back as
    [Error]. *)