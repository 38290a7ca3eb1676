(* System-cc back end for emitted kernels.

   The pipeline is [cc -std=c99 -O2 -shared -fPIC -ffp-contract=off]
   on the {!Emit_c} output, then [dlopen] through the cc_stubs shim.
   Objects live in the {!Artifact_cache} beside the OCaml plugins,
   keyed by blueprint digest x backend tag x [cc --version] x
   [Emit_c.revision], so a toolchain upgrade or a changed C emitter
   invalidates exactly the C half of the cache.
   [-ffp-contract=off] is load-bearing: it is what makes the object
   bitwise-comparable with the interpreter and the OCaml plugin (no FMA
   contraction of a*b+c). *)

external cc_load : string -> nativeint = "blockc_cc_load"

external cc_run :
  nativeint ->
  float array array
  * int array
  * int array array
  * int array
  * float array
  * int array ->
  string = "blockc_cc_run"

type fn = { entry : nativeint; mf : Emit_c.manifest }

let available () =
  Result.map ignore (Artifact_cache.find_compiler Artifact_cache.c)

(* First line of [cc --version], memoized: part of the cache key, so
   it must be cheap after the first call. *)
let version_mu = Mutex.create ()
let version_memo : (string, string) Hashtbl.t = Hashtbl.create 1

let cc_version compiler =
  match
    Mutex.protect version_mu (fun () -> Hashtbl.find_opt version_memo compiler)
  with
  | Some v -> v
  | None ->
      (* Outside the lock: a slow compiler blocks only its own callers. *)
      let v =
        try
          let ic =
            Unix.open_process_in
              (Filename.quote compiler ^ " --version 2>/dev/null")
          in
          let line = try input_line ic with End_of_file -> "" in
          ignore (Unix.close_process_in ic);
          line
        with Unix.Unix_error _ | Sys_error _ -> ""
      in
      Mutex.protect version_mu (fun () ->
          Hashtbl.replace version_memo compiler v);
      v

(* ---- compile + load ---------------------------------------------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The compiler's vectorization report ([-fopt-info-vec=FILE]), kept
   next to the cached object as [bk_<key>.vec] so warm loads can still
   answer "which loops vectorized?".  Only the remark lines themselves
   survive the filter; an absent or empty file (flag unsupported, or
   nothing vectorized) is just []. *)
let vec_remarks_of vecf =
  Artifact_cache.read_file vecf
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l <> "" && contains_sub l "vectoriz" then Some l else None)

(* ---- execution --------------------------------------------------- *)

let run ?(bindings = []) fn env =
  Obs.span ~cat:"jit" "cc.run"
  @@ fun () ->
  let mf = fn.mf in
  let geti, getf = Artifact_cache.scalar_readers ~bindings env in
  let dims get arrays =
    Array.concat
      (List.map (fun (n, _) -> Artifact_cache.flat_dims (get env n)) arrays)
  in
  match
    let fa =
      Array.of_list
        (List.map (fun (n, _) -> Env.farray_data env n) mf.Emit_c.m_farrays)
    in
    let fdim = dims Env.farray_dims mf.Emit_c.m_farrays in
    let ia =
      Array.of_list
        (List.map (fun (n, _) -> Env.iarray_data env n) mf.Emit_c.m_iarrays)
    in
    let idim = dims Env.iarray_dims mf.Emit_c.m_iarrays in
    let fsc = Array.of_list (List.map getf mf.Emit_c.m_fscalars) in
    let isc = Array.of_list (List.map geti mf.Emit_c.m_iscalars) in
    let msg = cc_run fn.entry (fa, fdim, ia, idim, fsc, isc) in
    if msg = "" then begin
      (* Scalar results back into the environment, mirroring the OCaml
         plugins' seti/setf write-backs. *)
      List.iteri
        (fun i n ->
          if List.mem n mf.Emit_c.m_fsc_w then Env.set_fscalar env n fsc.(i))
        mf.Emit_c.m_fscalars;
      List.iteri
        (fun i n ->
          if List.mem n mf.Emit_c.m_isc_w then Env.set_iscalar env n isc.(i))
        mf.Emit_c.m_iscalars;
      Ok ()
    end
    else Error msg
  with
  | r -> r
  | exception Env.Error m -> Error m
  | exception Failure m -> Error m

(* ---- compilation --------------------------------------------------- *)

let compile_blueprint ?cc ~name (bp : Blueprint.t) =
  Obs.span ~cat:"jit" "cc.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name) ]
  @@ fun () ->
  let compiler =
    match cc with
    | Some c -> Ok c
    | None -> Artifact_cache.find_compiler Artifact_cache.c
  in
  match compiler with
  | Error m -> Error m
  | Ok compiler ->
      let key =
        Digest.to_hex
          (Digest.string
             (Printf.sprintf "%s\x00c-backend\x00emit-%d\x00%s"
                (cc_version compiler) Emit_c.revision bp.Blueprint.key))
      in
      (* Forced on a miss only, so a memo hit walks nothing. *)
      let manifest =
        lazy
          (Result.map_error
             (Printf.sprintf "cannot compile %s: %s" name)
             (Emit_c.manifest bp.Blueprint.block))
      in
      Artifact_cache.fetch Artifact_cache.c ~name ~key
        ~emit:(fun () ->
          Result.bind (Lazy.force manifest) (fun _ ->
              Emit_c.source ~unsafe:bp.Blueprint.unsafe
                ~shapes:bp.Blueprint.shapes ~name bp.Blueprint.block))
        ~compile:(fun stem ->
          let cmd extra =
            Printf.sprintf
              "%s -std=c99 -O2 -shared -fPIC -ffp-contract=off%s -o %s %s -lm"
              (Filename.quote compiler) extra
              (Filename.quote (stem ^ ".so"))
              (Filename.quote (stem ^ ".c"))
          in
          let run = Artifact_cache.run_tool Artifact_cache.c ~name ~stem in
          (* First attempt asks for the vectorization report; compilers
             that reject the flag (it is a GCC spelling) get a clean
             retry without it. *)
          match run (cmd (" -fopt-info-vec=" ^ Filename.quote (stem ^ ".vec"))) with
          | Ok () -> Ok ()
          | Error _ ->
              (try Sys.remove (stem ^ ".vec") with Sys_error _ -> ());
              run (cmd ""))
        ~load:(fun so ->
          Result.bind (Lazy.force manifest) (fun mf ->
              match cc_load so with
              | entry ->
                  Ok
                    ( vec_remarks_of (Filename.remove_extension so ^ ".vec"),
                      fun ?bindings env -> run ?bindings { entry; mf } env )
              | exception Failure m ->
                  Error (Printf.sprintf "%s: dlopen failed: %s" name m)))
