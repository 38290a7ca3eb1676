(* The native code generator: emission, the JIT pipeline, and bitwise
   agreement with the interpreter.  The golden emitted sources are
   pinned in codegen_emit.t; these tests exercise behaviour. *)

open Helpers
module B = Builder

let entry name = Option.get (Blockability.find name)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let require_native () =
  match Jit.available () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "native codegen unavailable: %s" m

let require_cc () =
  match Cc.available () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "C backend unavailable: %s" m

(* A private cache dir makes the first compile a real compiler run even
   if an earlier test run left artifacts on disk.  It holds only files,
   and is removed afterwards. *)
let with_private_cache f =
  let saved = Artifact_cache.dir () in
  let tmp = Filename.temp_file "blockc-cache-test" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Unix.putenv "BLOCKC_JIT_CACHE" tmp;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "BLOCKC_JIT_CACHE" saved;
      Array.iter
        (fun n -> Sys.remove (Filename.concat tmp n))
        (Sys.readdir tmp);
      Sys.rmdir tmp)
    f

(* Fresh kernel-shaped environments for hand-rolled blocks. *)
let simple_env ~n =
  let env = Env.create () in
  Env.add_farray env "A" [ (1, n); (1, n) ];
  Env.set_iscalar env "N" n;
  let rng = Lcg.create 7 in
  Env.fill_farray env "A" (fun _ -> Lcg.float rng 1.0);
  env

let emit_ok ?unsafe ?shapes ~name block =
  ok_or_fail "emit" (Emit.source ?unsafe ?shapes ~name block)

(* Blueprint-normalize, compile on [backend] and run. *)
let run_native ?shapes ?(backend = (module Backend.Ocaml : Backend.S)) block env
    =
  let bp = Blueprint.of_block ?shapes block in
  let module Bk = (val backend : Backend.S) in
  Result.bind (Bk.compile_blueprint ~name:"probe" bp) (fun cm ->
      cm.Backend.bk_run ~bindings:bp.Blueprint.bindings env)

(* The block through the interpreter and through [backend]'s compiled
   blueprint, from two environments [make_env] builds alike; the [only]
   arrays must agree bitwise. *)
let native_matches_interp ?shapes ~only ~backend ~what ~make_env block =
  let env_i = make_env () in
  Exec.run env_i block;
  let env_n = make_env () in
  let module Bk = (val backend : Backend.S) in
  let what = Printf.sprintf "%s (%s)" what Bk.tag in
  ok_or_fail what (run_native ?shapes ~backend block env_n);
  match Env.diff ~only env_i env_n with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" what m

(* The [let o<n>_<array> = ...] lines: offset sums hoisted ahead of a
   loop. *)
let hoisted_lines src =
  List.filter
    (fun l -> contains l "let o")
    (String.split_on_char '\n' src)

(* Each registry kernel at two sizes: every extent a multiple of 8 (the
   block size KS, and of the unroll factor 4), and every extent 5 past
   that. *)
let registry_sizes (e : Blockability.entry) =
  let scale f =
    List.map
      (fun (k, v) -> if k = "FREQ_PCT" then (k, v) else (k, f v))
      e.Blockability.default_bindings
  in
  let up8 v = 8 * ((v + 7) / 8) in
  [ scale up8; scale (fun v -> up8 v + 5) ]

let suite =
  ( "codegen",
    [
      case "emission succeeds for every kernel (point + transformed)" (fun () ->
          List.iter
            (fun (e : Blockability.entry) ->
              let shapes = e.kernel.Kernel_def.shapes in
              ignore
                (emit_ok ~shapes ~name:(e.name ^ "_point")
                   e.kernel.Kernel_def.block);
              match Blockability.derive e with
              | Error _ -> () (* householder: expected negative result *)
              | Ok { result; _ } ->
                  ignore
                    (emit_ok ~shapes ~name:(e.name ^ "_transformed") [ result ]))
            Blockability.entries);
      case "in-bounds proofs fire for lu (and are re-checked at run time)"
        (fun () ->
          let e = entry "lu" in
          let src =
            emit_ok ~shapes:e.kernel.Kernel_def.shapes ~name:"lu_point"
              e.kernel.Kernel_def.block
          in
          let has needle = contains src needle in
          check_bool "unsafe_get" true (has "Array.unsafe_get");
          check_bool "unsafe_set" true (has "Array.unsafe_set");
          check_bool "dims re-checked" true (has "declared shape");
          check_bool "assumption re-checked" true (has "assume N >= 1"));
      case "unsafe:false disables unchecked accesses" (fun () ->
          let e = entry "lu" in
          let src =
            emit_ok ~unsafe:false ~shapes:e.kernel.Kernel_def.shapes
              ~name:"lu_point" e.kernel.Kernel_def.block
          in
          check_bool "no unsafe accesses" false (contains src "unsafe_"));
      case "unknown intrinsic is rejected" (fun () ->
          let block = [ Stmt.Assign ("S", [], Stmt.Fcall ("TANH", [ B.fc 1.0 ])) ] in
          match Emit.source ~name:"bad" block with
          | Ok _ -> Alcotest.fail "expected an emission error"
          | Error m ->
              check_bool "names the intrinsic" true (contains m "TANH"));
      case "assignment to a loop index is rejected" (fun () ->
          let block =
            [ B.do_ "I" (B.i 1) (B.v "N") [ Stmt.Iassign ("I", [], B.i 0) ] ]
          in
          match Emit.source ~name:"bad" block with
          | Ok _ -> Alcotest.fail "expected an emission error"
          | Error _ -> ());
      case "native lu runs bitwise equal to the interpreter" (fun () ->
          require_native ();
          let e = entry "lu" in
          let bindings = [ ("N", 20) ] in
          let env_i = Kernel_def.make_env e.kernel ~bindings ~seed:11 in
          Exec.run env_i e.kernel.Kernel_def.block;
          let env_n = Kernel_def.make_env e.kernel ~bindings ~seed:11 in
          ok_or_fail "native run"
            (run_native ~shapes:e.kernel.Kernel_def.shapes
               e.kernel.Kernel_def.block env_n);
          match Env.diff ~only:[ "A" ] env_i env_n with
          | None -> ()
          | Some m -> Alcotest.fail m);
      case "native conv handles non-unit lower bounds bitwise" (fun () ->
          require_native ();
          let e = entry "conv" in
          let bindings = e.Blockability.default_bindings in
          let env_i = Kernel_def.make_env e.kernel ~bindings ~seed:5 in
          Exec.run env_i e.kernel.Kernel_def.block;
          let env_n = Kernel_def.make_env e.kernel ~bindings ~seed:5 in
          ok_or_fail "native run"
            (run_native ~shapes:e.kernel.Kernel_def.shapes
               e.kernel.Kernel_def.block env_n);
          match Env.diff ~only:e.kernel.Kernel_def.traced env_i env_n with
          | None -> ()
          | Some m -> Alcotest.fail m);
      case "scalar results are written back to the environment" (fun () ->
          require_native ();
          let block =
            [
              Stmt.Iassign ("T", [], Expr.(mul (var "N") (int 2)));
              Stmt.Assign ("S", [], B.(fc 1.5 +. fc 2.0));
            ]
          in
          let env = simple_env ~n:4 in
          ok_or_fail "native run" (run_native block env);
          check_int "T" 8 (Env.iscalar env "T");
          check_bool "S" true (Float.equal (Env.fscalar env "S") 3.5));
      case "zero-step loop fails like the interpreter" (fun () ->
          require_native ();
          let block =
            [
              Stmt.Loop
                {
                  index = "I";
                  lo = Expr.int 1;
                  hi = Expr.var "N";
                  step = Expr.int 0;
                  body = [ Stmt.Assign ("S", [], B.fc 1.0) ];
                };
            ]
          in
          let env = simple_env ~n:4 in
          match run_native block env with
          | Ok () -> Alcotest.fail "expected a zero-step error"
          | Error m ->
              check_bool "message" true (contains m "zero step"));
      case "second compile of the same source hits the cache" (fun () ->
          require_native ();
          with_private_cache (fun () ->
              let bp =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 16.0625) ]
              in
              let compile () =
                ok_or_fail "compile" (Jit.compile_blueprint ~name:"memo" bp)
              in
              let l1 = compile () in
              let l2 = compile () in
              check_bool "compiled" false (Artifact_cache.cached l1);
              check_bool "memoized" true
                (l2.Backend.bk_disposition = Artifact_cache.Memo);
              check_string "same key" l1.Backend.bk_key l2.Backend.bk_key));
      case "broken ocamlopt degrades to a clear error" (fun () ->
          require_native ();
          let block = [ Stmt.Assign ("S", [], B.fc 1.0) ] in
          with_private_cache (fun () ->
              (* An empty cache: neither the memo nor the disk can
                 satisfy the request. *)
              match
                Jit.compile_blueprint ~ocamlopt:"/nonexistent/ocamlopt"
                  ~name:"probe"
                  (Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 1.03125) ])
              with
              | Ok _ -> Alcotest.fail "expected a compile failure"
              | Error m ->
                  check_bool "mentions ocamlopt" true (contains m "ocamlopt"));
          (* The interpreter path is unaffected. *)
          let env = simple_env ~n:2 in
          Exec.run env block;
          check_bool "interpreter still works" true
            (Float.equal (Env.fscalar env "S") 1.0));
      case "native_compare verifies and times the lu pair" (fun () ->
          require_native ();
          let r =
            ok_or_fail "native_compare"
              (Blockability.native_compare ~reps:1 (entry "lu"))
          in
          check_bool "point time measured" true (r.Blockability.nt_point_s >= 0.0);
          check_bool "transformed time measured" true
            (r.Blockability.nt_transformed_s >= 0.0));
      case "native_compare reports the householder negative result" (fun () ->
          match Blockability.native_compare (entry "householder") with
          | Ok _ -> Alcotest.fail "householder must not block"
          | Error m ->
              check_bool "cites §5.3" true (contains m "5.3"));
      case
        "blueprint: one kernel at two sizes is one key, one ocamlopt run, \
         bitwise"
        (fun () ->
          require_native ();
          let e = entry "lu" in
          let shapes = e.kernel.Kernel_def.shapes in
          (* Concretize N so the two blocks really differ (the symbolic
             registry IR is size-independent already); the blueprint
             must hoist both back to one structure. *)
          let concretize n =
            let s = [ ("N", Expr.int n) ] in
            ( Stmt.subst_block s e.kernel.Kernel_def.block,
              List.map
                (fun (a, dims) ->
                  ( a,
                    List.map
                      (fun (lo, hi) -> (Expr.subst s lo, Expr.subst s hi))
                      dims ))
                shapes )
          in
          let block24, shapes24 = concretize 24
          and block28, shapes28 = concretize 28 in
          let bp24 = Blueprint.of_block ~shapes:shapes24 block24
          and bp28 = Blueprint.of_block ~shapes:shapes28 block28 in
          check_string "one blueprint key" bp24.Blueprint.key
            bp28.Blueprint.key;
          with_private_cache (fun () ->
              let c0 = (Artifact_cache.stats ()).ocaml_builds in
              let l24 =
                ok_or_fail "compile 24"
                  (Jit.compile_blueprint ~name:"lu_n24" bp24)
              in
              let l28 =
                ok_or_fail "compile 28"
                  (Jit.compile_blueprint ~name:"lu_n28" bp28)
              in
              check_int "exactly one ocamlopt invocation" 1
                ((Artifact_cache.stats ()).ocaml_builds - c0);
              check_bool "second compile is a memo hit" true
                (l28.Backend.bk_disposition = Artifact_cache.Memo);
              check_string "one artifact" l24.Backend.bk_artifact l28.Backend.bk_artifact;
              (* Bitwise vs the interpreter at both sizes. *)
              List.iter
                (fun (n, block, (bp : Blueprint.t), (l : Backend.compiled)) ->
                  let bindings = [ ("N", n) ] in
                  let env_i =
                    Kernel_def.make_env e.kernel ~bindings ~seed:11
                  in
                  Exec.run env_i block;
                  let env_n =
                    Kernel_def.make_env e.kernel ~bindings ~seed:11
                  in
                  ok_or_fail "native run"
                    (l.Backend.bk_run ~bindings:bp.Blueprint.bindings env_n);
                  match Env.diff ~only:[ "A" ] env_i env_n with
                  | None -> ()
                  | Some m -> Alcotest.failf "N=%d: %s" n m)
                [ (24, block24, bp24, l24); (28, block28, bp28, l28) ]));
      case "blueprint memo is LRU-bounded and counts evictions" (fun () ->
          require_native ();
          let saved_cap =
            Option.value
              (Sys.getenv_opt "BLOCKC_JIT_MEMO_CAP")
              ~default:"64"
          in
          Unix.putenv "BLOCKC_JIT_MEMO_CAP" "2";
          Fun.protect
            ~finally:(fun () -> Unix.putenv "BLOCKC_JIT_MEMO_CAP" saved_cap)
            (fun () ->
              with_private_cache @@ fun () ->
              let e0 = (Artifact_cache.stats ()).memo_evictions in
              (* Three distinct structures (float literals are never
                 hoisted, so each is its own blueprint key). *)
              List.iter
                (fun c ->
                  let bp =
                    Blueprint.of_block
                      [ Stmt.Assign ("S", [], B.fc c) ]
                  in
                  ignore
                    (ok_or_fail "compile"
                       (Jit.compile_blueprint ~name:"lru_probe" bp)))
                [ 1.125; 2.125; 3.125 ];
              let s = Artifact_cache.stats () in
              check_bool "memo stayed within cap" true (s.memo_size <= 2);
              check_bool "evictions counted" true
                (s.memo_evictions - e0 >= 1)));
      case "concurrent compiles of one blueprint are single-flighted"
        (fun () ->
          require_native ();
          require_cc ();
          List.iter
            (fun ((module Bk : Backend.S), builds) ->
              with_private_cache @@ fun () ->
              let bp =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 7.0625) ]
              in
              let c0 = builds (Artifact_cache.stats ()) in
              let ds =
                List.init 3 (fun _ ->
                    Domain.spawn (fun () ->
                        Bk.compile_blueprint ~name:"flight_probe" bp))
              in
              let keys =
                List.map
                  (fun d -> (ok_or_fail "compile" (Domain.join d)).Backend.bk_key)
                  ds
              in
              check_int
                (Printf.sprintf "one %s build for three requests" Bk.tag)
                1
                (builds (Artifact_cache.stats ()) - c0);
              List.iter (check_string "same key" (List.hd keys)) keys)
            [
              ((module Backend.Ocaml), fun s -> s.Artifact_cache.ocaml_builds);
              ((module Backend.C), fun s -> s.Artifact_cache.c_builds);
            ]);
      case "a build that cannot write fails without wedging its key"
        (fun () ->
          require_native ();
          require_cc ();
          (* A cache directory under a regular file: every write of the
             build fails. *)
          let file = Filename.temp_file "blockc-not-a-dir" "" in
          let saved = Artifact_cache.dir () in
          Unix.putenv "BLOCKC_JIT_CACHE" (Filename.concat file "cache");
          Fun.protect
            ~finally:(fun () ->
              Unix.putenv "BLOCKC_JIT_CACHE" saved;
              Sys.remove file)
            (fun () ->
              let bp =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 13.0625) ]
              in
              List.iter
                (fun (module Bk : Backend.S) ->
                  (* On a domain, so a compile waiting forever for a
                     claim nobody releases fails the test instead of
                     hanging it. *)
                  let attempt () =
                    let result = Atomic.make None in
                    let d =
                      Domain.spawn (fun () ->
                          Atomic.set result
                            (Some
                               (try Bk.compile_blueprint ~name:"unwritable" bp
                                with e ->
                                  Error ("raised " ^ Printexc.to_string e))))
                    in
                    let rec wait n =
                      match Atomic.get result with
                      | Some r ->
                          Domain.join d;
                          r
                      | None when n = 0 ->
                          Alcotest.failf "%s: the compile hung" Bk.tag
                      | None ->
                          Unix.sleepf 0.01;
                          wait (n - 1)
                    in
                    wait 2000
                  in
                  for i = 1 to 2 do
                    match attempt () with
                    | Ok _ -> Alcotest.failf "%s: compile %d succeeded" Bk.tag i
                    | Error m ->
                        check_bool
                          (Printf.sprintf "%s: compile %d is an Error: %s"
                             Bk.tag i m)
                          true
                          (String.starts_with ~prefix:"unwritable" m)
                  done)
                Backend.all));
      case "a slow C build does not hold up memo hits on other keys"
        (fun () ->
          require_cc ();
          with_private_cache (fun () ->
              let probe c =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc c) ]
              in
              let hit () = Cc.compile_blueprint ~name:"hit" (probe 14.0625) in
              ignore (ok_or_fail "warm" (hit ()));
              (* A compiler that announces each build, then takes 2 s
                 over it. *)
              let slow_cc = Filename.concat (Artifact_cache.dir ()) "slow-cc" in
              let started = slow_cc ^ ".started" in
              Out_channel.with_open_bin slow_cc (fun oc ->
                  Printf.fprintf oc
                    "#!/bin/sh\ncase \"$1\" in --version) exec cc \"$@\";; esac\n\
                     : > %s\nsleep 2\nexec cc \"$@\"\n"
                    (Filename.quote started));
              Unix.chmod slow_cc 0o755;
              let slow =
                Domain.spawn (fun () ->
                    Cc.compile_blueprint ~cc:slow_cc ~name:"slow"
                      (probe 15.0625))
              in
              let rec wait n =
                if n > 0 && not (Sys.file_exists started) then begin
                  Unix.sleepf 0.01;
                  wait (n - 1)
                end
              in
              wait 2000;
              let t0 = Unix.gettimeofday () in
              let l = ok_or_fail "hit" (hit ()) in
              let dt = Unix.gettimeofday () -. t0 in
              let built = ok_or_fail "slow" (Domain.join slow) in
              check_bool "the slow build ran" true (Sys.file_exists started);
              check_string "memo hit" "memo"
                (Jit.disposition_name l.Backend.bk_disposition);
              check_bool
                (Printf.sprintf "the hit took %.3f s, not the build's 2 s" dt)
                true (dt < 1.0);
              check_string "slow build" "compiled"
                (Jit.disposition_name built.Backend.bk_disposition)));
      qcase ~count:60 "blueprint specialization is the exact inverse of \
                       hoisting" Gen_prog.gen (fun p ->
          let bp = Blueprint.of_block p.Gen_prog.block in
          let back = Blueprint.specialize bp in
          String.equal
            (Stmt.block_to_string p.Gen_prog.block)
            (Stmt.block_to_string back));
      case "C backend runs lu and conv bitwise equal to the interpreter"
        (fun () ->
          require_cc ();
          List.iter
            (fun (name, seed) ->
              let e = entry name in
              let bindings = e.Blockability.default_bindings in
              let env_i = Kernel_def.make_env e.kernel ~bindings ~seed in
              Exec.run env_i e.kernel.Kernel_def.block;
              let env_c = Kernel_def.make_env e.kernel ~bindings ~seed in
              let bp =
                Blueprint.of_block ~shapes:e.kernel.Kernel_def.shapes
                  e.kernel.Kernel_def.block
              in
              let l =
                ok_or_fail "cc compile"
                  (Cc.compile_blueprint ~name:(name ^ "_c") bp)
              in
              ok_or_fail "cc run"
                (l.Backend.bk_run ~bindings:(bindings @ bp.Blueprint.bindings) env_c);
              match Env.diff ~only:e.kernel.Kernel_def.traced env_i env_c with
              | None -> ()
              | Some m -> Alcotest.failf "%s: %s" name m)
            [ ("lu", 11); ("conv", 5); ("givens", 3) ]);
      case "C backend writes scalars and INTEGER arrays back" (fun () ->
          require_cc ();
          let block =
            [
              Stmt.Iassign ("T", [], Expr.(mul (var "N") (int 2)));
              Stmt.Iassign ("K", [ B.i 2 ], Expr.(add (var "N") (int 1)));
              Stmt.Assign ("S", [], B.(fc 1.5 +. fc 2.0));
            ]
          in
          let env = simple_env ~n:4 in
          Env.add_iarray env "K" [ (1, 3) ];
          let bp = Blueprint.of_block block in
          let l = ok_or_fail "cc compile" (Cc.compile_blueprint ~name:"wb" bp) in
          ok_or_fail "cc run" (l.Backend.bk_run ~bindings:bp.Blueprint.bindings env);
          check_int "T" 8 (Env.iscalar env "T");
          check_int "K(2)" 5 (Env.get_i env "K" [ 2 ]);
          check_bool "S" true (Float.equal (Env.fscalar env "S") 3.5));
      case "C backend fails like the interpreter (zero step, negative SQRT)"
        (fun () ->
          require_cc ();
          let run block =
            let env = simple_env ~n:4 in
            let bp = Blueprint.of_block block in
            let l =
              ok_or_fail "cc compile" (Cc.compile_blueprint ~name:"fail" bp)
            in
            l.Backend.bk_run ~bindings:bp.Blueprint.bindings env
          in
          (match
             run
               [
                 Stmt.Loop
                   {
                     index = "I";
                     lo = Expr.int 1;
                     hi = Expr.var "N";
                     step = Expr.int 0;
                     body = [ Stmt.Assign ("S", [], B.fc 1.0) ];
                   };
               ]
           with
          | Ok () -> Alcotest.fail "zero step accepted"
          | Error m -> check_bool "zero step message" true (contains m "zero step"));
          match
            run [ Stmt.Assign ("S", [], Stmt.Fcall ("SQRT", [ B.fc (-4.0) ])) ]
          with
          | Ok () -> Alcotest.fail "negative SQRT accepted"
          | Error m ->
              check_bool "sqrt message" true (contains m "SQRT of negative"));
      case "C artifacts are cached (memo + disk) and keyed per backend"
        (fun () ->
          require_cc ();
          with_private_cache (fun () ->
              let bp =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 9.0625) ]
              in
              let c0 = (Artifact_cache.stats ()).c_builds in
              let l1 =
                ok_or_fail "compile" (Cc.compile_blueprint ~name:"cache" bp)
              in
              let l2 =
                ok_or_fail "compile" (Cc.compile_blueprint ~name:"cache" bp)
              in
              let s = Artifact_cache.stats () in
              check_int "one cc run" 1 (s.c_builds - c0);
              check_bool "memo hit" true
                (l2.Backend.bk_disposition = Artifact_cache.Memo);
              check_bool "so artifact" true
                (Filename.check_suffix l1.Backend.bk_artifact ".so");
              check_bool "disk stats count .so" true (s.disk_entries >= 1)));
      case "backend registry resolves tags" (fun () ->
          check_bool "ocaml" true (Option.is_some (Backend.of_tag "ocaml"));
          check_bool "c" true (Option.is_some (Backend.of_tag "c"));
          check_bool "unknown" true (Option.is_none (Backend.of_tag "rust"));
          check_bool "names" true (Backend.names = [ "ocaml"; "c" ]));
      case "BLOCKC_JIT_DISK_CAP prunes oldest artifacts and counts evictions"
        (fun () ->
          require_native ();
          with_private_cache (fun () ->
              let saved_cap =
                Option.value (Sys.getenv_opt "BLOCKC_JIT_DISK_CAP") ~default:""
              in
              Unix.putenv "BLOCKC_JIT_DISK_CAP" "1";
              Fun.protect
                ~finally:(fun () ->
                  Unix.putenv "BLOCKC_JIT_DISK_CAP" saved_cap)
                (fun () ->
                  let e0 = (Artifact_cache.stats ()).disk_evictions in
                  let compile c =
                    ok_or_fail "compile"
                      (Jit.compile_blueprint ~name:"cap_probe"
                         (Blueprint.of_block [ Stmt.Assign ("S", [], B.fc c) ]))
                  in
                  let _l1 = compile 4.125 in
                  let l2 = compile 5.125 in
                  (* The cap (1 byte) forces every artifact but the one
                     just written out of the cache. *)
                  let s = Artifact_cache.stats () in
                  check_int "only the newest artifact remains" 1
                    s.disk_entries;
                  check_bool "evictions counted" true
                    (s.disk_evictions - e0 >= 1);
                  check_bool "survivor is the newest" true
                    (Sys.file_exists l2.Backend.bk_artifact))));
      case "a hoisted offset never divides ahead of a zero-trip loop"
        (fun () ->
          require_native ();
          (* DO J = 1, Z with Z = 0: the N / Z subscript is invariant in
             J, but hoisting it would raise Division_by_zero where the
             interpreter runs no iteration. *)
          let block =
            [
              B.do_ "I" (B.i 1) (B.v "N")
                [
                  B.do_ "J" (B.i 1) (B.v "Z")
                    [
                      B.set2 "A" (B.v "J")
                        (Expr.div (B.v "N") (B.v "Z"))
                        (B.fc 1.0);
                    ];
                  B.set2 "A" (B.v "I") (B.v "I")
                    B.(a2 "A" (v "I") (v "I") +. fc 1.0);
                ];
            ]
          in
          let src = emit_ok ~name:"zero_trip_div" block in
          check_bool "the division stays in the loop" true
            (List.for_all (fun l -> not (contains l "/")) (hoisted_lines src));
          native_matches_interp ~only:[ "A" ] ~backend:(module Backend.Ocaml)
            ~what:"zero-trip division"
            ~make_env:(fun () ->
              let env = simple_env ~n:6 in
              Env.set_iscalar env "Z" 0;
              env)
            block);
      case "a subscript reading a scalar the loop assigns is not hoisted"
        (fun () ->
          require_native ();
          (* M changes every iteration of the I loop that reads A(I, M);
             a copy of (M - l1) * t1 taken before the loop would be
             stale. *)
          let block =
            [
              B.do_ "J" (B.i 1) (B.v "N")
                [
                  B.do_ "I" (B.i 1) (B.v "N")
                    [
                      B.seti "M" B.(v "N" +! i 1 -! v "I");
                      B.set2 "A" (B.v "I") (B.v "J")
                        B.(a2 "A" (v "I") (v "J") +. a2 "A" (v "J") (v "M"));
                    ];
                ];
            ]
          in
          let src = emit_ok ~name:"assigned_scalar" block in
          check_bool "M is read in the loop" true
            (List.for_all
               (fun l -> not (contains l "s_m"))
               (hoisted_lines src));
          check_bool "the J column offset is hoisted" true
            (List.exists
               (fun l -> contains l "((i_j - l1_a) * t1_a) - l0_a in")
               (hoisted_lines src));
          List.iter
            (fun backend ->
              native_matches_interp ~only:[ "A" ] ~backend
                ~what:"assigned scalar"
                ~make_env:(fun () -> simple_env ~n:7)
                block)
            Backend.all);
      case
        "every registry kernel, point and transformed, runs bitwise on \
         both backends at two sizes"
        (fun () ->
          require_native ();
          require_cc ();
          List.iter
            (fun (e : Blockability.entry) ->
              let kernel = e.Blockability.kernel in
              let variants =
                ("point", kernel.Kernel_def.block, [])
                ::
                (match Blockability.derive e with
                | Error _ -> [] (* householder: expected negative result *)
                | Ok { result; _ } ->
                    [
                      ( "transformed",
                        [ result ],
                        e.Blockability.extra_bindings );
                    ])
              in
              List.iter
                (fun (variant, block, extra) ->
                  List.iter
                    (fun bindings ->
                      let bindings = extra @ bindings in
                      let what =
                        Printf.sprintf "%s %s at %s" e.Blockability.name
                          variant
                          (String.concat ","
                             (List.map
                                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                                bindings))
                      in
                      let make_env () =
                        let env =
                          Kernel_def.make_env kernel ~bindings ~seed:3
                        in
                        e.Blockability.extra_setup env ~bindings;
                        env
                      in
                      List.iter
                        (fun backend ->
                          native_matches_interp
                            ~shapes:kernel.Kernel_def.shapes
                            ~only:kernel.Kernel_def.traced ~backend ~what
                            ~make_env block)
                        Backend.all)
                    (registry_sizes e))
                variants)
            Blockability.entries);
      case "an artifact built under the previous cache key is not loaded"
        (fun () ->
          require_native ();
          require_cc ();
          with_private_cache (fun () ->
              (* A valid plugin and object, each planted under the key
                 the blueprint had before the emitter revision entered
                 it: both must be rebuilt, not loaded. *)
              let probe c =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc c) ]
              in
              let donor = probe 11.0625 and bp = probe 12.0625 in
              let jd =
                ok_or_fail "donor" (Jit.compile_blueprint ~name:"donor" donor)
              in
              let cd =
                ok_or_fail "donor" (Cc.compile_blueprint ~name:"donor" donor)
              in
              let copy src dst =
                let oc = open_out_bin dst in
                output_string oc
                  (In_channel.with_open_bin src In_channel.input_all);
                close_out oc
              in
              let plant src ~key_of ext =
                copy src
                  (Filename.concat (Artifact_cache.dir ())
                     ("bk_"
                     ^ Digest.to_hex (Digest.string (key_of bp.Blueprint.key))
                     ^ ext))
              in
              let cc_version =
                let ic = Unix.open_process_in "cc --version 2>/dev/null" in
                let line = try input_line ic with End_of_file -> "" in
                ignore (Unix.close_process_in ic);
                line
              in
              plant jd.Backend.bk_artifact ".cmxs" ~key_of:(fun k ->
                  Sys.ocaml_version ^ "\x00blueprint\x00" ^ k);
              plant cd.Backend.bk_artifact ".so" ~key_of:(fun k ->
                  cc_version ^ "\x00c-backend\x00" ^ k);
              let jl =
                ok_or_fail "ocaml" (Jit.compile_blueprint ~name:"stale" bp)
              in
              check_string "ocaml" "compiled"
                (Jit.disposition_name jl.Backend.bk_disposition);
              let cl = ok_or_fail "c" (Cc.compile_blueprint ~name:"stale" bp) in
              check_string "c" "compiled"
                (Jit.disposition_name cl.Backend.bk_disposition)));
      case "C memo hits keep the vectorizer remarks without the .vec file"
        (fun () ->
          require_cc ();
          with_private_cache (fun () ->
              (* Two adjacent raw stores cc vectorizes as one basic
                 block (the shape proves both in bounds). *)
              let scale r =
                B.set2 "A" (B.i r) (B.v "J")
                  B.(a2 "A" (i r) (v "J") *. fc 1.4375)
              in
              let bp =
                Blueprint.of_block
                  ~shapes:[ ("A", [ (B.i 1, B.i 2); (B.i 1, B.v "N") ]) ]
                  [ B.do_ "J" (B.i 1) (B.v "N") [ scale 1; scale 2 ] ]
              in
              let compile () =
                ok_or_fail "compile" (Cc.compile_blueprint ~name:"vec" bp)
              in
              let l1 = compile () in
              check_bool "the compile reported remarks" true
                (l1.Backend.bk_remarks <> []);
              Sys.remove (Filename.remove_extension l1.Backend.bk_artifact ^ ".vec");
              let l2 = compile () in
              check_bool "memo hit" true
                (l2.Backend.bk_disposition = Artifact_cache.Memo);
              check_bool "same remarks" true
                (l1.Backend.bk_remarks = l2.Backend.bk_remarks)));
    ] )
