(* ocamlopt -shared + Dynlink back end for emitted kernels. *)

type fn =
  (string -> int)
  * (string -> float)
  * (string -> float array)
  * (string -> int array)
  * (string -> int array)
  * (string -> int array)
  * (string -> float -> unit)
  * (string -> int -> unit)
  -> unit

let disposition_name = Artifact_cache.disposition_name

(* [ocamlopt] overrides compiler discovery. *)
let find_ocamlopt ocamlopt =
  if not Dynlink.is_native then
    Error "bytecode host: Dynlink cannot load native plugins"
  else
    match ocamlopt with
    | Some p -> Ok p
    | None -> Artifact_cache.find_compiler Artifact_cache.ocaml

let available () = Result.map ignore (find_ocamlopt None)

(* ---- emission ----------------------------------------------------- *)

let emit ?unsafe ?shapes ~name blk =
  Obs.span ~cat:"jit" "jit.emit" ~args:[ ("kernel", Obs.Str name) ]
  @@ fun () -> Emit.source ?unsafe ?shapes ~name blk

(* ---- loading ------------------------------------------------------ *)

(* The plugin's initializer raises [Blockc_kernel run].  An exception
   value is a block whose first field is the constructor slot — itself a
   block whose first field is the constructor's name.  Validate the name
   before trusting the payload. *)
let extract (e : exn) : fn option =
  let r = Obj.repr e in
  if Obj.is_block r && Obj.size r = 2 && Obj.is_block (Obj.field r 0) then begin
    let slot = Obj.field r 0 in
    if
      Obj.size slot >= 1
      && Obj.is_block (Obj.field slot 0)
      && Obj.tag (Obj.field slot 0) = Obj.string_tag
    then begin
      let name : string = Obj.obj (Obj.field slot 0) in
      if name = "Blockc_kernel" || String.ends_with ~suffix:".Blockc_kernel" name
      then Some (Obj.obj (Obj.field r 1) : fn)
      else None
    end
    else None
  end
  else None

(* Dynlink keeps global state; serialize loads across domains. *)
let dynlink_mu = Mutex.create ()

let load ~name cmxs =
  Obs.span ~cat:"jit" "jit.load"
    ~args:[ ("kernel", Obs.Str name); ("cmxs", Obs.Str cmxs) ]
  @@ fun () ->
  Mutex.lock dynlink_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dynlink_mu)
    (fun () ->
      match Dynlink.loadfile_private cmxs with
      | () -> Error (name ^ ": plugin did not provide a kernel entry point")
      | exception Dynlink.Error (Dynlink.Library's_module_initializers_failed e)
        -> (
          match extract e with
          | Some fn -> Ok fn
          | None ->
              Error (name ^ ": plugin failed to load: " ^ Printexc.to_string e))
      | exception Dynlink.Error err ->
          Error (name ^ ": dynlink: " ^ Dynlink.error_message err))

(* ---- execution ---------------------------------------------------- *)

let run ?(bindings = []) fn env =
  Obs.span ~cat:"jit" "jit.run"
  @@ fun () ->
  let geti, getf = Artifact_cache.scalar_readers ~bindings env in
  let getfa = Env.farray_data env in
  let getia = Env.iarray_data env in
  let getfd n = Artifact_cache.flat_dims (Env.farray_dims env n) in
  let getid n = Artifact_cache.flat_dims (Env.iarray_dims env n) in
  let setf = Env.set_fscalar env in
  let seti = Env.set_iscalar env in
  match fn (geti, getf, getfa, getia, getfd, getid, setf, seti) with
  | () -> Ok ()
  | exception Env.Error m -> Error m
  | exception Failure m -> Error m
  | exception Division_by_zero -> Error "division by zero"
  | exception Invalid_argument m -> Error ("out of bounds: " ^ m)

(* ---- compilation -------------------------------------------------- *)

(* The plugin's module name comes from its file name (the key), so the
   emitted text must not vary with the caller's diagnostic name — one
   blueprint, one source, one artifact. *)
let compile_blueprint ?ocamlopt ~name (bp : Blueprint.t) =
  Obs.span ~cat:"jit" "jit.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name); ("blueprint", Obs.Str bp.Blueprint.key) ]
  @@ fun () ->
  match find_ocamlopt ocamlopt with
  | Error m -> Error m
  | Ok compiler ->
      let key =
        Digest.to_hex
          (Digest.string
             (Printf.sprintf "%s\x00blueprint\x00emit-%d\x00%s"
                Sys.ocaml_version Emit.revision bp.Blueprint.key))
      in
      Artifact_cache.fetch Artifact_cache.ocaml ~name ~key
        ~emit:(fun () ->
          emit ~unsafe:bp.Blueprint.unsafe ~shapes:bp.Blueprint.shapes
            ~name:("bp_" ^ String.sub bp.Blueprint.key 0 12)
            bp.Blueprint.block)
        ~compile:(fun stem ->
          Artifact_cache.run_tool Artifact_cache.ocaml ~name ~stem
            (Printf.sprintf "%s -shared -w -a -o %s %s"
               (Filename.quote compiler)
               (Filename.quote (stem ^ ".cmxs"))
               (Filename.quote (stem ^ ".ml"))))
        ~load:(fun cmxs ->
          Result.map
            (fun fn -> ([], fun ?bindings env -> run ?bindings fn env))
            (load ~name cmxs))
