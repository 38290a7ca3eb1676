(** Compiling emitted kernels to native code and running them in-process.

    The pipeline is [ocamlopt -shared] on the {!Emit} output, then
    [Dynlink.loadfile_private] on the resulting [.cmxs].  Because the
    plugin is self-contained, no [.cmi] is shared with the host: the
    plugin raises [Blockc_kernel run] from its initializer, the load
    surfaces it as [Library's_module_initializers_failed], and the
    closure is pulled out of the exception payload after checking the
    constructor's name.

    Compiled plugins are cached on disk under [_build/.jitcache]
    (override with [BLOCKC_JIT_CACHE]).  The cache key digests the
    {!Blueprint} key, the compiler version and {!Emit.revision} for the
    {!compile_blueprint} path — so one loop structure is one artifact
    no matter how many problem sizes it runs at, and a changed emitter
    never loads an old plugin — and the raw source for the legacy
    {!compile} path.  An in-process memo avoids
    even the [Dynlink] load on repeat requests; it is LRU-bounded
    ([BLOCKC_JIT_MEMO_CAP], default 64) so a long-running daemon cannot
    grow without limit, with evictions counted in
    [Obs.Metrics "jit.memo_evictions"].  Concurrent compiles of the
    same key are single-flighted: one request builds, the rest wait and
    share the result ([jit.compile_dedup_hits]).

    Every stage records an Obs span ([jit.emit], [jit.compile],
    [jit.compile_blueprint], [jit.load], [jit.run]) so [--trace] covers
    the native path. *)

type fn
(** A loaded kernel entry point. *)

(** How a compile request was satisfied: from the in-process memo, from
    the on-disk artifact cache, or by actually running [ocamlopt]. *)
type disposition = Memo | Disk | Compiled

val disposition_name : disposition -> string
(** ["memo"], ["disk"] or ["compiled"] — the spelling the CLI's
    [--json] output and the serve protocol use. *)

type loaded = {
  key : string;  (** full cache key (blueprint or source digest) *)
  cmxs : string;  (** path of the compiled plugin *)
  cached : bool;  (** true when the compile step was skipped *)
  disposition : disposition;
  compile_s : float;
      (** wall-clock seconds spent producing the artifact; 0 for memo
          hits, the [ocamlopt] wall time for fresh compiles *)
  fn : fn;
}

val available : unit -> (unit, string) result
(** [Ok ()] when native dynlink works and [ocamlopt] was found (on
    [PATH], or via [BLOCKC_OCAMLOPT]); otherwise a one-line reason —
    callers fall back to the interpreter. *)

val cache_dir : unit -> string

val emit :
  ?unsafe:bool ->
  ?shapes:Emit.shapes ->
  name:string ->
  Stmt.t list ->
  (string, string) result
(** {!Emit.source} wrapped in a [jit.emit] span. *)

val compile : ?ocamlopt:string -> name:string -> string -> (loaded, string) result
(** Compile (or fetch from cache) and load emitted source, keyed by the
    source digest.  [name] is only for diagnostics and spans.
    [ocamlopt] overrides compiler discovery — pointing it at a
    non-compiler is how the fallback path is tested. *)

val compile_blueprint :
  ?ocamlopt:string -> name:string -> Blueprint.t -> (loaded, string) result
(** Compile (or fetch) the plugin for a normalized blueprint, keyed by
    [Blueprint.key], the compiler version and {!Emit.revision}.  Emission only happens on
    a cache miss: the warm path is a hash lookup.  Run the result with
    {!run}[ ~bindings:bp.Blueprint.bindings]. *)

val run :
  ?bindings:(string * int) list -> fn -> Env.t -> (unit, string) result
(** Execute a loaded kernel against an environment: parameters and
    scalars are read from it, array buffers are shared with it (the
    kernel writes results in place), and scalar results are written
    back.  [bindings] take precedence over the environment's integer
    scalars — they close the parameters a {!Blueprint} hoisted.
    Runtime failures (zero step, negative SQRT, out-of-bounds checked
    access) come back as [Error]. *)

val run_block :
  ?unsafe:bool ->
  ?shapes:Emit.shapes ->
  name:string ->
  Stmt.t list ->
  Env.t ->
  (unit, string) result
(** Blueprint-normalize, compile and run in one step: repeated calls
    with blocks that share a loop structure share one compile. *)

(** {1 Cache introspection}

    Process-wide counters, exact regardless of whether [Obs.Metrics]
    collection is enabled — the compile-count acceptance tests and the
    serve daemon's status report read them. *)

val compiler_invocations : unit -> int
(** Number of actual [ocamlopt] runs so far in this process. *)

val memo_size : unit -> int
(** Entries currently held by the in-process memo. *)

val memo_evictions : unit -> int
(** LRU evictions so far (also mirrored to
    [Obs.Metrics "jit.memo_evictions"] when metrics are on). *)

val dedup_waits : unit -> int
(** Requests that found their key already being compiled and waited for
    the in-flight build instead of starting another. *)

val memo_hits : unit -> int
(** Lookups satisfied by the in-process memo (no Dynlink, no ocamlopt).
    Mirrored to [Obs.Metrics "jit.memo_hits"] when metrics are on. *)

val disk_hits : unit -> int
(** Lookups satisfied by an on-disk [.cmxs] artifact (Dynlink load, no
    ocamlopt).  Mirrored to [Obs.Metrics "jit.disk_hits"]. *)

type disk_cache = {
  entries : int;  (** [bk_*.cmxs] / [bk_*.so] artifacts in {!cache_dir} *)
  bytes : int;  (** their total size *)
  oldest_age_s : float;  (** age of the oldest artifact; 0 when empty *)
}

val disk_stats : unit -> disk_cache
(** Scan the on-disk cache ([bk_*.cmxs] plugins and [bk_*.so]
    C-backend objects).  Advisory (races with concurrent compiles are
    harmless); an absent cache directory reads as empty. *)

val prune_disk_cache : keep:string list -> unit -> unit
(** When [BLOCKC_JIT_DISK_CAP] is set (a byte budget), delete
    artifacts oldest-mtime-first — with their [.ml]/[.c]/[.err]
    siblings — until the cache fits.  [keep] names basenames that are
    never deleted (the artifact just written).  Called automatically
    after every fresh compile on both backends; exposed for tests.
    No-op when the variable is unset or not a positive integer. *)

val scratch_stem : string -> string -> string
(** [scratch_stem dir base] is a path prefix in [dir], for one build of
    artifact [base]'s files, that no other build uses: it adds the
    process id and a per-process counter.  Builds write there and
    rename the finished files to [base]'s names, so processes sharing
    a cache never write each other's files. *)

val remove_quietly : string list -> unit
(** Remove each file, ignoring ones that are absent. *)

val disk_evictions : unit -> int
(** Artifacts deleted by {!prune_disk_cache} so far in this process
    (also mirrored to [Obs.Metrics "jit.disk_evictions"]). *)
