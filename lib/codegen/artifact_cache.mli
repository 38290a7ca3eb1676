(** The content-addressed artifact cache shared by both native back
    ends, {!Jit} (OCaml plugins) and {!Cc} (C shared objects).  A back
    end supplies its key, emission, compiler command and loader; this
    module owns the rest.

    Artifacts live in {!dir} ([_build/.jitcache], override
    [BLOCKC_JIT_CACHE]) as [bk_<key><ext>], beside their source, any
    compiler reports and a checksum [bk_<key><ext>.md5] (the hex MD5 of
    the artifact's bytes).  A build writes under a scratch stem no
    other build uses, then renames the source, the reports, the
    checksum and last the artifact into place.  A disk hit is loaded
    only when the artifact matches its checksum; otherwise it is
    rebuilt, never mapped.  Loaded artifacts of both back ends share
    one LRU memo ([BLOCKC_JIT_MEMO_CAP], default 64).  Concurrent
    requests for one key share one build, requests for other keys never
    wait for it, and every exit from a build releases its key.  With
    [BLOCKC_JIT_DISK_CAP] (bytes) set, each build prunes the oldest
    artifacts, each with all its [bk_<key>.*] siblings. *)

(** How a compile request was satisfied: from the in-process memo, from
    a verified on-disk artifact, or by running the compiler. *)
type disposition = Memo | Disk | Compiled

val disposition_name : disposition -> string
(** ["memo"], ["disk"] or ["compiled"] — the spelling the CLI's
    [--json] output and the serve protocol use. *)

type run = ?bindings:(string * int) list -> Env.t -> (unit, string) result

(** A loaded native kernel. *)
type compiled = {
  bk_tag : string;  (** which back end produced it (["ocaml"], ["c"]) *)
  bk_key : string;  (** full cache key *)
  bk_artifact : string;  (** compiled plugin ([.cmxs]) or object ([.so]) *)
  bk_disposition : disposition;
  bk_compile_s : float;
      (** wall-clock seconds spent producing the artifact: 0 for memo
          hits, the checksum check for disk hits, emission plus the
          compiler for fresh builds *)
  bk_remarks : string list;
      (** optimizer remarks about the artifact: the C back end's
          vectorization report; [] for the OCaml back end *)
  bk_run : run;
      (** Run against an environment: arrays are shared with it (the
          kernel writes results in place), written scalars are stored
          back, [bindings] take precedence over its integer scalars
          (they close the parameters a {!Blueprint} hoisted), and
          runtime failures (zero step, negative SQRT, out-of-bounds
          checked access) come back as [Error]. *)
}

val cached : compiled -> bool
(** The compiler did not run: a memo or disk hit. *)

(** {1 Back ends} *)

type backend
(** One back end's file layout, compiler and build counter. *)

val ocaml : backend
(** [bk_<key>.ml] compiled by [ocamlopt] ([BLOCKC_OCAMLOPT]) to
    [bk_<key>.cmxs]. *)

val c : backend
(** [bk_<key>.c] compiled by [cc] ([BLOCKC_CC]) to [bk_<key>.so], with
    the vectorization report [bk_<key>.vec]. *)

val tag : backend -> string

val find_compiler : backend -> (string, string) result
(** The compiler named by the back end's variable, else found on
    [PATH]; otherwise a one-line reason. *)

val dir : unit -> string
(** The cache directory, absolute. *)

val read_file : string -> string
(** A file's contents; [""] when it cannot be read. *)

val run_tool :
  backend -> name:string -> stem:string -> string -> (unit, string) result
(** [run_tool b ~name ~stem cmd] runs the shell command [cmd] with its
    stderr captured beside [stem]; a non-zero exit is an [Error] naming
    the kernel, the compiler and the first lines of its output. *)

val fetch :
  backend ->
  name:string ->
  key:string ->
  emit:(unit -> (string, string) result) ->
  compile:(string -> (unit, string) result) ->
  load:(string -> (string list * run, string) result) ->
  (compiled, string) result
(** The artifact for [key]: a memo hit, else a verified disk hit, else a
    build.  A build forces [emit] (the source), then, in the back end's
    span ([jit.compile] or [cc.compile]), writes it to
    [stem ^ source extension] and calls [compile stem], which must
    produce [stem ^ artifact extension] (and may leave reports there).
    [load path] maps a finished artifact and returns its remarks and
    run function.  [name] is only for diagnostics. *)

(** {1 Introspection} *)

type stats = {
  ocaml_builds : int;  (** [ocamlopt] runs in this process *)
  c_builds : int;  (** [cc] builds in this process *)
  memo_size : int;  (** entries in the memo *)
  memo_hits : int;
  memo_evictions : int;  (** LRU evictions *)
  dedup_waits : int;
      (** requests that found their key being built and waited for it *)
  disk_hits : int;  (** loads of verified on-disk artifacts *)
  disk_evictions : int;  (** artifacts deleted by pruning *)
  disk_entries : int;  (** artifacts in {!dir} now *)
  disk_bytes : int;  (** their total size *)
  disk_oldest_age_s : float;  (** age of the oldest; 0 when empty *)
}

val stats : unit -> stats
(** Process-wide counts, both back ends together, plus a scan of {!dir}
    (advisory: it races harmlessly with concurrent builds, and an
    absent directory reads as empty). *)

(** {1 Running} *)

val scalar_readers :
  bindings:(string * int) list -> Env.t -> (string -> int) * (string -> float)
(** The integer and REAL scalar readers behind [bk_run]: [bindings]
    first, then the environment, then 0. *)

val flat_dims : (int * int) list -> int array
(** [[(lo1, hi1); (lo2, hi2)]] as [[|lo1; hi1; lo2; hi2|]]. *)
