(* Opt-in stress of serve's batch fan-out, outside [dune runtest].

   It sends the benchmark's batch-fanout mix to an in-process server:
   [Serve.run_channel] with its reader domain, request queue, two
   worker lanes and the default execution pool, as [blockc serve] runs
   them.  Each batch carries the 8 sizes 96, 192, 288, ... of one warm
   cell (kernel, variant, backend), one batch in flight at a time, for
   a fixed number of batches.  Every item digest of one (kernel,
   bindings, data seed) must agree across variants, backends and
   repeats; any failed or missing response fails the run.

     dune build @test/batch-stress                  (400 batches, seed 1)
     dune exec test/batch_stress.exe -- BATCHES SEED

   To look for memory corruption, link this executable against the
   debug runtime ([(link_flags (-runtime-variant d))]), which checks
   heap invariants as it collects. *)

module J = Json_min

let warm_cells =
  [
    ("lu_opt", []);
    ("lu_pivot_opt", []);
    ("cholesky", []);
    ("trisolve", []);
    ("matmul", [ ("FREQ_PCT", 5) ]);
    ("matmul", [ ("FREQ_PCT", 50) ]);
    ("givens", []);
    ("aconv", []);
  ]

let sizes = [ 96; 192; 288; 96; 192; 288; 96; 192 ]

let bindings kernel fixed n =
  match kernel with
  | "givens" -> [ ("M", n); ("N", n) ]
  | "aconv" -> [ ("N1", n * n / 3); ("N2", n); ("N3", n * n / 3) ]
  | _ -> ("N", n) :: fixed

let combos =
  List.concat_map
    (fun cell ->
      List.concat_map
        (fun variant -> List.map (fun backend -> (cell, variant, backend)) [ "ocaml"; "c" ])
        [ "point"; "transformed" ])
    warm_cells

(* A seeded shuffle: every combination comes up once per deck. *)
let shuffle rng l =
  List.map (fun x -> (Lcg.int rng 1_000_000_000, x)) l
  |> List.sort compare |> List.map snd

let jbindings bs = J.Object (List.map (fun (k, v) -> (k, J.Number (float_of_int v))) bs)

let field name = function J.Object kvs -> List.assoc_opt name kvs | _ -> None

let client ~batches ~seed oc ic =
  let rng = Lcg.create seed in
  let refs = Hashtbl.create 64 in
  let failures = ref 0 and items = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        prerr_endline m)
      fmt
  in
  let send req =
    output_string oc (J.to_string req);
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | line -> J.parse line
    | exception End_of_file -> Error "serve gave no response"
  in
  let deck = ref [] in
  for i = 1 to batches do
    if !deck = [] then deck := shuffle rng combos;
    let ((kernel, fixed), variant, backend) = List.hd !deck in
    deck := List.tl !deck;
    let data_seed = 1 + Lcg.int rng 2 in
    let bl = List.map (bindings kernel fixed) sizes in
    let what = Printf.sprintf "batch %d: %s %s %s seed %d" i kernel variant backend data_seed in
    let req =
      J.Object
        [
          ("id", J.Number (float_of_int i));
          ("op", J.String "batch");
          ("kernel", J.String kernel);
          ("variant", J.String variant);
          ("backend", J.String backend);
          ("bindings_list", J.Array (List.map jbindings bl));
          ("seed", J.Number (float_of_int data_seed));
        ]
    in
    (match send req with
    | Error m -> fail "%s: %s" what m
    | Ok resp -> (
        match (field "ok" resp, field "digests" resp) with
        | Some (J.Bool true), Some (J.Array ds) when List.length ds = List.length bl ->
            List.iter2
              (fun b d ->
                incr items;
                let key = (kernel, b, data_seed) in
                match (d, Hashtbl.find_opt refs key) with
                | J.String d, None -> Hashtbl.replace refs key d
                | J.String d, Some r when d = r -> ()
                | J.String d, Some r ->
                    fail "%s: %s gives digest %s, earlier %s" what
                      (J.to_string (jbindings b)) d r
                | _ -> fail "%s: a digest is not a string" what)
              bl ds
        | _ -> fail "%s: %s" what (J.to_string resp)));
    if i mod 50 = 0 then Printf.printf "%d batches, %d items, %d failures\n%!" i !items !failures
  done;
  ignore (send (J.Object [ ("op", J.String "shutdown") ]));
  Printf.printf "done: %d batches, %d items, %d distinct inputs, %d failures\n%!" batches !items
    (Hashtbl.length refs) !failures;
  !failures

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let batches = arg 1 400 and seed = arg 2 1 in
  (* as [blockc serve] runs: metrics on, spans into the flight recorder *)
  Obs.Metrics.set_enabled true;
  if not (Obs.enabled ()) then Obs.set_sink (Obs.Recorder.sink ());
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let c =
    Domain.spawn (fun () ->
        client ~batches ~seed (Unix.out_channel_of_descr req_w)
          (Unix.in_channel_of_descr resp_r))
  in
  let qpool = Pool.create ~name:"serve" ~domains:2 () in
  ignore
    (Serve.run_channel ~qpool ~exec_pool:(Pool.default ())
       (Unix.in_channel_of_descr req_r) (Unix.out_channel_of_descr resp_w));
  Pool.shutdown qpool;
  let failures = Domain.join c in
  exit (if failures = 0 then 0 else 1)
