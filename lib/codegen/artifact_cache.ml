(* The content-addressed artifact cache both native back ends share.
   A back end supplies emission, its compiler command and its loader;
   everything else about an artifact's life is here, once. *)

type disposition = Memo | Disk | Compiled

let disposition_name = function
  | Memo -> "memo"
  | Disk -> "disk"
  | Compiled -> "compiled"

type run = ?bindings:(string * int) list -> Env.t -> (unit, string) result

type compiled = {
  bk_tag : string;
  bk_key : string;
  bk_artifact : string;
  bk_disposition : disposition;
  bk_compile_s : float;
  bk_remarks : string list;
  bk_run : run;
}

let cached c = c.bk_disposition <> Compiled

(* ---- counters ----------------------------------------------------- *)

(* One lock guards the memo, the in-flight set and every counter.  The
   counts are exact whether or not Obs.Metrics collection is on; the
   metric is a mirror. *)
let mu = Mutex.create ()
let built_cond = Condition.create ()

type counter = { mutable n : int; metric : Obs.Metrics.counter Lazy.t }

let counter ~help name =
  { n = 0; metric = lazy (Obs.Metrics.counter ~help name) }

(* Caller holds [mu]. *)
let bump c =
  c.n <- c.n + 1;
  Obs.Metrics.incr (Lazy.force c.metric)

let memo_hits =
  counter ~help:"Kernel lookups satisfied by the in-process memo"
    "jit.memo_hits"

let memo_evictions =
  counter ~help:"LRU evictions from the in-process memo" "jit.memo_evictions"

let dedup_waits =
  counter
    ~help:"Compiles coalesced onto another request already building the \
           same key"
    "jit.compile_dedup_hits"

let disk_hits =
  counter ~help:"Kernel lookups satisfied by a verified on-disk artifact"
    "jit.disk_hits"

let disk_evictions =
  counter
    ~help:"Artifacts deleted from the on-disk cache by BLOCKC_JIT_DISK_CAP \
           LRU pruning"
    "jit.disk_evictions"

(* ---- back ends ---------------------------------------------------- *)

(* The on-disk layout of one back end's artifacts ([bk_<key>] plus the
   source, report, artifact and checksum suffixes), its compiler, and
   the span a build is recorded under. *)
type backend = {
  tag : string;
  span : string;
  tool : string;
  tool_env : string;
  source_ext : string;
  ext : string;
  reports : string list;
  builds : counter;
}

let backend ~tag ~span ~tool ~tool_env ~source_ext ~ext ~reports =
  let builds =
    counter ~help:"Native artifact builds (compiler runs)"
      (Obs.Metrics.labelled "jit.builds" [ ("backend", tag) ])
  in
  { tag; span; tool; tool_env; source_ext; ext; reports; builds }

let ocaml =
  backend ~tag:"ocaml" ~span:"jit.compile" ~tool:"ocamlopt"
    ~tool_env:"BLOCKC_OCAMLOPT" ~source_ext:".ml" ~ext:".cmxs" ~reports:[]

let c =
  backend ~tag:"c" ~span:"cc.compile" ~tool:"cc" ~tool_env:"BLOCKC_CC"
    ~source_ext:".c" ~ext:".so" ~reports:[ ".vec" ]

let tag b = b.tag

let find_compiler b =
  let found =
    match Sys.getenv_opt b.tool_env with
    | Some p -> if Sys.file_exists p then Some p else None
    | None ->
        let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
        List.find_map
          (fun dir ->
            let p = Filename.concat dir b.tool in
            if dir <> "" && Sys.file_exists p then Some p else None)
          (String.split_on_char ':' path)
  in
  Option.to_result found
    ~none:(Printf.sprintf "%s not found on PATH (set %s)" b.tool b.tool_env)

(* ---- files -------------------------------------------------------- *)

let dir () =
  let d =
    Option.value (Sys.getenv_opt "BLOCKC_JIT_CACHE")
      ~default:(Filename.concat "_build" ".jitcache")
  in
  if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d

(* A failed mkdir is ignored: another process may have made the
   directory, and any other failure surfaces at the first write. *)
let rec mkdirs p =
  if not (Sys.file_exists p) then begin
    let parent = Filename.dirname p in
    if parent <> p then mkdirs parent;
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()
let listing dir = try Sys.readdir dir with Sys_error _ -> [||]

(* Remove every file of [names], a listing of [dir], whose name starts
   with [prefix]. *)
let remove_prefixed names dir prefix =
  Array.iter
    (fun n ->
      if String.starts_with ~prefix n then
        remove_quietly (Filename.concat dir n))
    names

(* [bk_] and a 32-digit key: a scratch artifact, whose stem is longer,
   belongs to a build still running. *)
let is_artifact n =
  String.starts_with ~prefix:"bk_" n
  && String.length (Filename.remove_extension n) = 35
  && List.exists (fun b -> Filename.check_suffix n b.ext) [ ocaml; c ]

(* The artifacts among [names], a listing of [dir], with their sizes
   and mtimes.  A file that vanished since the listing is skipped. *)
let artifacts dir names =
  Array.to_list names
  |> List.filter_map (fun n ->
         if not (is_artifact n) then None
         else
           match Unix.stat (Filename.concat dir n) with
           | st -> Some (n, st.Unix.st_size, st.Unix.st_mtime)
           | exception Unix.Unix_error _ -> None)

(* The checksum file beside an artifact holds the hex MD5 of its bytes.
   A disk hit is loaded only when they match: mapping a truncated file
   would kill the process with SIGBUS.  An artifact without a checksum
   (written before they existed) does not match either, and is rebuilt
   once. *)
let checksum_of path = path ^ ".md5"
let digest_of path = Digest.to_hex (Digest.file path)

let intact path =
  match read_file (checksum_of path) with
  | "" -> false
  | sum -> ( try String.equal sum (digest_of path) with Sys_error _ -> false)

let positive_env var =
  match Option.bind (Sys.getenv_opt var) int_of_string_opt with
  | Some n when n >= 1 -> Some n
  | _ -> None

(* LRU-by-mtime pruning, after each fresh build: artifacts are deleted
   oldest first, each with every [bk_<key>.*] sibling, until their total
   size fits under BLOCKC_JIT_DISK_CAP.  [keep], the artifact just
   written, is never deleted, so a cap smaller than one artifact still
   leaves the current kernel runnable.  Races with concurrent builds
   are harmless. *)
let total_bytes arts = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 arts

let prune ~keep =
  match positive_env "BLOCKC_JIT_DISK_CAP" with
  | None -> ()
  | Some cap ->
      let dir = Filename.dirname keep in
      let names = listing dir in
      let arts =
        List.sort
          (fun (_, _, a) (_, _, b) -> Float.compare a b)
          (artifacts dir names)
      in
      let excess = ref (total_bytes arts - cap) in
      List.iter
        (fun (n, sz, _) ->
          if !excess > 0 && n <> Filename.basename keep then begin
            remove_prefixed names dir (Filename.remove_extension n ^ ".");
            excess := !excess - sz;
            Mutex.protect mu (fun () -> bump disk_evictions)
          end)
        arts

(* ---- building ----------------------------------------------------- *)

(* Scratch names for one build of [base]: the process id plus a
   per-process counter, so concurrent builds of one key (threads here,
   or other processes sharing the cache) never write the same file.
   Underscores, not dots: the OCaml source's file name is its module
   name. *)
let build_counter = Atomic.make 0

let scratch_stem base =
  Printf.sprintf "%s_%d_%d" base (Unix.getpid ())
    (Atomic.fetch_and_add build_counter 1)

let first_lines s =
  String.split_on_char '\n' (String.trim s)
  |> List.filteri (fun i _ -> i < 4)
  |> String.concat " | "

let run_tool b ~name ~stem cmd =
  let errf = stem ^ ".err" in
  match Sys.command (cmd ^ " 2> " ^ Filename.quote errf) with
  | 0 -> Ok ()
  | rc ->
      Error
        (Printf.sprintf "%s: %s failed (exit %d): %s" name b.tool rc
           (first_lines (read_file errf)))

(* Emit, compile under a scratch stem, then rename the source, the
   reports, the checksum and last the artifact into place: a process
   that finds the artifact finds its siblings.  Whatever the build
   left under the stem is deleted on every exit. *)
let build b ~name ~key ~base ~emit ~compile =
  match emit () with
  | Error _ as e -> e
  | Ok source -> (
      Obs.span ~cat:"jit" b.span
        ~args:[ ("kernel", Obs.Str name); ("key", Obs.Str key) ]
      @@ fun () ->
      let stem = scratch_stem base in
      let dir = Filename.dirname stem in
      Fun.protect ~finally:(fun () ->
          remove_prefixed (listing dir) dir (Filename.basename stem ^ "."))
      @@ fun () ->
      write_file (stem ^ b.source_ext) source;
      Mutex.protect mu (fun () -> bump b.builds);
      match compile stem with
      | Error _ as e -> e
      | Ok () ->
          let art = stem ^ b.ext in
          write_file (checksum_of art) (digest_of art);
          List.iter
            (fun ext ->
              if Sys.file_exists (stem ^ ext) then
                Sys.rename (stem ^ ext) (base ^ ext)
              else remove_quietly (base ^ ext))
            ((b.source_ext :: b.reports) @ [ checksum_of b.ext; b.ext ]);
          prune ~keep:(base ^ b.ext);
          Ok ())

let produce b ~name ~key ~emit ~compile ~load =
  let dir = dir () in
  mkdirs dir;
  let base = Filename.concat dir ("bk_" ^ key) in
  let path = base ^ b.ext in
  let t0 = Unix.gettimeofday () in
  let on_disk = intact path in
  let built =
    if on_disk then Ok () else build b ~name ~key ~base ~emit ~compile
  in
  let compile_s = Unix.gettimeofday () -. t0 in
  Result.bind built (fun () ->
      Result.map
        (fun (remarks, run) ->
          {
            bk_tag = b.tag;
            bk_key = key;
            bk_artifact = path;
            bk_disposition = (if on_disk then Disk else Compiled);
            bk_compile_s = compile_s;
            bk_remarks = remarks;
            bk_run = run;
          })
        (load path))

(* ---- the in-process memo (bounded, shared, single-flight) --------- *)

type slot = { art : compiled; mutable last_used : int }

let memo : (string, slot) Hashtbl.t = Hashtbl.create 16
let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 4
let clock = ref 0

(* Caller holds [mu].  Evict least-recently-used entries down to the
   cap: the serve daemon compiles unboundedly many distinct blueprints
   over its lifetime and must not hold every artifact forever. *)
let memo_insert key art =
  incr clock;
  Hashtbl.replace memo key { art; last_used = !clock };
  let cap = Option.value (positive_env "BLOCKC_JIT_MEMO_CAP") ~default:64 in
  while Hashtbl.length memo > cap do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, best) when best.last_used <= s.last_used -> acc
          | _ -> Some (k, s))
        memo None
    in
    match victim with
    | None -> assert false (* the table has more than [cap >= 1] entries *)
    | Some (k, _) ->
        Hashtbl.remove memo k;
        bump memo_evictions
  done

(* A build's outcome becomes visible to waiters, and its claim is
   released, on every exit — an error or an exception included. *)
let settle key outcome =
  Mutex.protect mu (fun () ->
      (match outcome with
      | Ok art ->
          memo_insert key art;
          if art.bk_disposition = Disk then bump disk_hits
      | Error _ -> ());
      Hashtbl.remove in_flight key;
      Condition.broadcast built_cond)

(* The memo and the in-flight set are consulted under [mu]; emission,
   the compiler and the load run outside it, so a slow build blocks
   only the requests for its own key.  Those wait on [built_cond]
   instead of racing a second build. *)
let fetch b ~name ~key ~emit ~compile ~load =
  let rec claim waited =
    match Hashtbl.find_opt memo key with
    | Some slot ->
        incr clock;
        slot.last_used <- !clock;
        bump memo_hits;
        Some { slot.art with bk_disposition = Memo; bk_compile_s = 0.0 }
    | None when Hashtbl.mem in_flight key ->
        if not waited then bump dedup_waits;
        Condition.wait built_cond mu;
        claim true
    | None ->
        Hashtbl.add in_flight key ();
        None
  in
  match Mutex.protect mu (fun () -> claim false) with
  | Some hit -> Ok hit
  | None ->
      let outcome = ref (Error "") in
      Fun.protect ~finally:(fun () -> settle key !outcome) @@ fun () ->
      (outcome :=
         try produce b ~name ~key ~emit ~compile ~load
         with Sys_error m | Failure m -> Error (name ^ ": " ^ m));
      !outcome

(* ---- introspection ------------------------------------------------ *)

type stats = {
  ocaml_builds : int;
  c_builds : int;
  memo_size : int;
  memo_hits : int;
  memo_evictions : int;
  dedup_waits : int;
  disk_hits : int;
  disk_evictions : int;
  disk_entries : int;
  disk_bytes : int;
  disk_oldest_age_s : float;
}

let stats () =
  let dir = dir () in
  let arts = artifacts dir (listing dir) in
  let now = Unix.gettimeofday () in
  Mutex.protect mu (fun () ->
      {
        ocaml_builds = ocaml.builds.n;
        c_builds = c.builds.n;
        memo_size = Hashtbl.length memo;
        memo_hits = memo_hits.n;
        memo_evictions = memo_evictions.n;
        dedup_waits = dedup_waits.n;
        disk_hits = disk_hits.n;
        disk_evictions = disk_evictions.n;
        disk_entries = List.length arts;
        disk_bytes = total_bytes arts;
        disk_oldest_age_s =
          List.fold_left (fun o (_, _, m) -> Float.max o (now -. m)) 0.0 arts;
      })

(* ---- the bk_run contract ------------------------------------------ *)

let scalar_readers ~bindings env =
  ( (fun n ->
      match List.assoc_opt n bindings with
      | Some v -> v
      | None -> if Env.has_iscalar env n then Env.iscalar env n else 0),
    fun n -> if Env.has_fscalar env n then Env.fscalar env n else 0.0 )

let flat_dims dims =
  Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) dims)
