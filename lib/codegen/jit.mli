(** Compiling emitted kernels to native code and running them in-process.

    The pipeline is [ocamlopt -shared] on the {!Emit} output, then
    [Dynlink.loadfile_private] on the resulting [.cmxs].  Because the
    plugin is self-contained, no [.cmi] is shared with the host: the
    plugin raises [Blockc_kernel run] from its initializer, the load
    surfaces it as [Library's_module_initializers_failed], and the
    closure is pulled out of the exception payload after checking the
    constructor's name.

    Plugins live in the {!Artifact_cache}, keyed by the {!Blueprint}
    key, the compiler version and {!Emit.revision}: one loop structure
    is one artifact no matter how many problem sizes it runs at, and a
    changed emitter never loads an old plugin.

    Every stage records an Obs span ([jit.compile_blueprint] around
    [jit.emit], [jit.compile] and [jit.load]; [jit.run]) so [--trace]
    covers the native path. *)

val disposition_name : Artifact_cache.disposition -> string
(** {!Artifact_cache.disposition_name}. *)

val available : unit -> (unit, string) result
(** [Ok ()] when native dynlink works and [ocamlopt] was found (on
    [PATH], or via [BLOCKC_OCAMLOPT]); otherwise a one-line reason —
    callers fall back to the interpreter. *)

val emit :
  ?unsafe:bool ->
  ?shapes:Emit.shapes ->
  name:string ->
  Stmt.t list ->
  (string, string) result
(** {!Emit.source} wrapped in a [jit.emit] span. *)

val compile_blueprint :
  ?ocamlopt:string ->
  name:string ->
  Blueprint.t ->
  (Artifact_cache.compiled, string) result
(** Compile (or fetch) the plugin for a normalized blueprint.  Emission
    only happens on a cache miss: the warm path is a hash lookup.  Run
    the result with [bk_run ~bindings:bp.Blueprint.bindings].  [name] is
    only for diagnostics and spans; [ocamlopt] overrides compiler
    discovery — pointing it at a non-compiler is how the fallback path
    is tested. *)
