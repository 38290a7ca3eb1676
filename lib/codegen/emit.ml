(* IR -> OCaml lowering.  See emit.mli for the contract.

   The generated module binds every array to its flat column-major
   buffer once, keeps scalars in refs, and lowers loops to [for] with
   the interpreter's once-evaluated bounds and trip count.  Name
   mangling is by prefix (loop index [i_], INTEGER scalar [s_], REAL
   scalar [f_], REAL array [a_], INTEGER array [ia_]), so Fortran names
   can never collide with OCaml keywords or each other. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

(* 2: loop-invariant offset sums hoisted ahead of each loop. *)
let revision = 2

type shapes = (string * (Expr.t * Expr.t) list) list

let low = String.lowercase_ascii

(* ---- name collection -------------------------------------------- *)

type decls = {
  mutable farr : int SM.t; (* REAL arrays -> rank *)
  mutable iarr : int SM.t; (* INTEGER arrays -> rank *)
  mutable fsc : SS.t; (* REAL scalars (read or written) *)
  mutable fsc_w : SS.t; (* ... assigned somewhere in the block *)
  mutable isc : SS.t; (* INTEGER scalars *)
  mutable isc_w : SS.t;
  mutable bad : string option; (* first unsupported construct *)
}

let fail d fmt =
  Printf.ksprintf (fun m -> if d.bad = None then d.bad <- Some m) fmt

let note_arr d ~float_data name rank =
  let m = if float_data then d.farr else d.iarr in
  (match SM.find_opt name m with
  | Some r when r <> rank ->
      fail d "array %s used with both %d and %d subscripts" name r rank
  | _ -> ());
  if float_data then d.farr <- SM.add name rank d.farr
  else d.iarr <- SM.add name rank d.iarr

let collect block =
  let d =
    {
      farr = SM.empty;
      iarr = SM.empty;
      fsc = SS.empty;
      fsc_w = SS.empty;
      isc = SS.empty;
      isc_w = SS.empty;
      bad = None;
    }
  in
  let rec expr scope (e : Expr.t) =
    match e with
    | Expr.Int _ -> ()
    | Expr.Var v -> if not (SS.mem v scope) then d.isc <- SS.add v d.isc
    | Expr.Bin (_, a, b) | Expr.Min (a, b) | Expr.Max (a, b) ->
        expr scope a;
        expr scope b
    | Expr.Idx (name, subs) ->
        note_arr d ~float_data:false name (List.length subs);
        List.iter (expr scope) subs
  in
  let rec fexpr scope (fe : Stmt.fexpr) =
    match fe with
    | Stmt.Fconst _ -> ()
    | Stmt.Fvar v -> d.fsc <- SS.add v d.fsc
    | Stmt.Ref (name, subs) ->
        note_arr d ~float_data:true name (List.length subs);
        List.iter (expr scope) subs
    | Stmt.Fbin (_, a, b) ->
        fexpr scope a;
        fexpr scope b
    | Stmt.Fneg a -> fexpr scope a
    | Stmt.Fcall (name, args) ->
        (match (name, List.length args) with
        | ("SQRT" | "DSQRT" | "ABS" | "DABS"), 1 | ("SIGN" | "DSIGN"), 2 -> ()
        | _ -> fail d "unknown intrinsic %s/%d" name (List.length args));
        List.iter (fexpr scope) args
    | Stmt.Of_int e -> expr scope e
  in
  let rec cond scope (c : Stmt.cond) =
    match c with
    | Stmt.Fcmp (_, a, b) ->
        fexpr scope a;
        fexpr scope b
    | Stmt.Icmp (_, a, b) ->
        expr scope a;
        expr scope b
    | Stmt.Not a -> cond scope a
    | Stmt.And (a, b) | Stmt.Or (a, b) ->
        cond scope a;
        cond scope b
  in
  let rec stmt scope (s : Stmt.t) =
    match s with
    | Stmt.Assign (name, [], rhs) ->
        d.fsc <- SS.add name d.fsc;
        d.fsc_w <- SS.add name d.fsc_w;
        fexpr scope rhs
    | Stmt.Assign (name, subs, rhs) ->
        note_arr d ~float_data:true name (List.length subs);
        List.iter (expr scope) subs;
        fexpr scope rhs
    | Stmt.Iassign (name, [], rhs) ->
        if SS.mem name scope then fail d "assignment to loop index %s" name;
        d.isc <- SS.add name d.isc;
        d.isc_w <- SS.add name d.isc_w;
        expr scope rhs
    | Stmt.Iassign (name, subs, rhs) ->
        note_arr d ~float_data:false name (List.length subs);
        List.iter (expr scope) subs;
        expr scope rhs
    | Stmt.If (c, t, e) ->
        cond scope c;
        List.iter (stmt scope) t;
        List.iter (stmt scope) e
    | Stmt.Loop l ->
        expr scope l.lo;
        expr scope l.hi;
        expr scope l.step;
        List.iter (stmt (SS.add l.index scope)) l.body
  in
  List.iter (stmt SS.empty) block;
  d

(* ---- in-bounds proofs -------------------------------------------- *)

let rec min_terms (e : Expr.t) =
  match e with Expr.Min (a, b) -> min_terms a @ min_terms b | _ -> [ e ]

let rec max_terms (e : Expr.t) =
  match e with Expr.Max (a, b) -> max_terms a @ max_terms b | _ -> [ e ]

(* [a <= b] at the Expr level, decomposing MIN/MAX into the affine
   queries Symbolic can answer.  Sound, not complete: MIN/MAX nested
   under arithmetic and Idx subscripts fall to [false]. *)
let rec ple ctx (a : Expr.t) (b : Expr.t) =
  match (a, b) with
  | Expr.Max (x, y), _ -> ple ctx x b && ple ctx y b
  | _, Expr.Min (x, y) -> ple ctx a x && ple ctx a y
  | Expr.Min (x, y), _ -> ple ctx x b || ple ctx y b
  | _, Expr.Max (x, y) -> ple ctx a x || ple ctx a y
  | _ -> (
      match (Affine.of_expr a, Affine.of_expr b) with
      | Some a', Some b' -> Symbolic.prove_le ctx a' b'
      | _ -> false)

(* A fact may only enter the context if nothing it mentions is assigned
   by the block: a stale [N >= 1] after [N = 0] would unsoundly license
   an unchecked access.  (Loop indices cannot be assigned — that is an
   interpreter error the emitter also rejects.) *)
let untainted ~tainted a =
  List.for_all (fun v -> not (SS.mem v tainted)) (Affine.vars a)

let assume_ge_safe ~tainted ctx a b =
  if untainted ~tainted a && untainted ~tainted b then
    Symbolic.assume_ge ctx a b
  else ctx

let step_ge1 ctx (e : Expr.t) =
  match Affine.of_expr e with
  | Some a -> Symbolic.prove_ge ctx a (Affine.const 1)
  | None -> false

(* Facts available inside the body of [l]: for a provably positive step,
   every executed iteration satisfies [lo <= index <= hi] (the trip
   count stops at or below [hi]).  MAX in the lower bound and MIN in the
   upper bound decompose into one fact per term. *)
let enter_loop ~tainted ctx (l : Stmt.loop) =
  if not (step_ge1 ctx l.step) then ctx
  else begin
    let ix = Affine.var l.index in
    let ctx =
      List.fold_left
        (fun ctx t ->
          match Affine.of_expr t with
          | Some a -> assume_ge_safe ~tainted ctx ix a
          | None -> ctx)
        ctx (max_terms l.lo)
    in
    List.fold_left
      (fun ctx t ->
        match Affine.of_expr t with
        | Some a -> assume_ge_safe ~tainted ctx a ix
        | None -> ctx)
      ctx (min_terms l.hi)
  end

(* Base facts every backend starts from: the symbolic parameters not
   assigned by the block are positive (re-checked at run time before
   any unchecked access fires), and each declared shape is a nonempty
   dimension ([hi >= lo] is an Env invariant for every array that
   exists).  Returns the context plus the assumed parameter set. *)
let base_ctx ~tainted ~shapes blk =
  let params =
    List.filter (fun p -> not (SS.mem p tainted)) (Ir_util.symbolic_params blk)
  in
  let ctx = List.fold_left Symbolic.assume_pos Symbolic.empty params in
  let ctx =
    List.fold_left
      (fun ctx (_, dims) ->
        List.fold_left
          (fun ctx (lo, hi) ->
            match (Affine.of_expr lo, Affine.of_expr hi) with
            | Some l, Some h -> assume_ge_safe ~tainted ctx h l
            | _ -> ctx)
          ctx dims)
      ctx shapes
  in
  (ctx, SS.of_list params)

(* ---- rendering ---------------------------------------------------- *)

(* The innermost loop being rendered: its index, and the offset sums
   hoisted in front of its [for] (newest first, deduplicated by text). *)
type frame = { index : string; mutable hoisted : (string * string) list }

type st = {
  d : decls;
  shapes : shapes;
  unsafe : bool;
  tainted : SS.t; (* INTEGER scalars the block assigns *)
  mutable body : Buffer.t;
  mutable frame : frame option;
  mutable hoists : int; (* names handed out so far *)
  mutable proved : SS.t; (* arrays with at least one unchecked access *)
  mutable assumed : SS.t; (* parameters whose positivity a proof used *)
}

let line st ind fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.body (String.make (2 * ind) ' ');
      Buffer.add_string st.body s;
      Buffer.add_char st.body '\n')
    fmt

let float_lit x =
  if Float.is_nan x then "Float.nan"
  else if x = Float.infinity then "Float.infinity"
  else if x = Float.neg_infinity then "Float.neg_infinity"
  else begin
    let valid s = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
    let fix s = if valid s then s else s ^ "." in
    let s = Printf.sprintf "%g" x in
    let s = if float_of_string s = x then fix s else fix (Printf.sprintf "%.17g" x) in
    if s.[0] = '-' then "(" ^ s ^ ")" else s
  end

(* A subscript that may be evaluated once before the innermost loop's
   [for] instead of on every iteration: it does not mention that loop's
   index, and it cannot raise or go stale — no division (a zero-trip
   loop must not raise Division_by_zero), no INTEGER-array read
   (inspector tables are written at run time), no scalar the block
   assigns. *)
let rec invariant st ~index (e : Expr.t) =
  match e with
  | Expr.Int _ -> true
  | Expr.Var v -> v <> index && not (SS.mem v st.tainted)
  | Expr.Bin (Expr.Div, _, _) | Expr.Idx _ -> false
  | Expr.Bin (_, a, b) | Expr.Min (a, b) | Expr.Max (a, b) ->
      invariant st ~index a && invariant st ~index b

(* Flat column-major offset of [subs] into array [name]:
   [(s0 - l0) + ((s1 - l1) * t1) + ...]; [ipfx] is the mangled-name
   prefix of the array's lows and strides.  Inside a loop, the
   dimension terms that are invariant in it, plus the [- l0], are
   summed once into a name bound before the loop's [for], and the
   access adds the remaining terms to that name.  Only integer
   arithmetic moves, and [int] is modular, so the offset is the same. *)
let flat_index st pe ~ipfx name subs =
  let nm = low name in
  let term k sub =
    if k = 0 then Printf.sprintf "(%s - %sl0_%s)" (pe sub) ipfx nm
    else
      Printf.sprintf "((%s - %sl%d_%s) * %st%d_%s)" (pe sub) ipfx k nm ipfx k
        nm
  in
  let sum = function [ t ] -> t | ts -> "(" ^ String.concat " + " ts ^ ")" in
  let parts = List.mapi (fun k sub -> (k, sub)) subs in
  let fixed, varying =
    match st.frame with
    | None -> ([], parts)
    | Some fr ->
        List.partition (fun (_, s) -> invariant st ~index:fr.index s) parts
  in
  match (st.frame, fixed) with
  | None, _ | _, [] -> sum (List.map (fun (k, s) -> term k s) parts)
  | Some fr, _ ->
      let fixed_sum =
        String.concat " + " (List.map (fun (k, s) -> term k s) fixed)
        ^
        if List.mem_assoc 0 fixed then ""
        else Printf.sprintf " - %sl0_%s" ipfx nm
      in
      let o =
        match List.assoc_opt fixed_sum fr.hoisted with
        | Some o -> o
        | None ->
            st.hoists <- st.hoists + 1;
            let o = Printf.sprintf "o%d_%s" st.hoists nm in
            fr.hoisted <- (fixed_sum, o) :: fr.hoisted;
            o
      in
      let var (k, s) = if k = 0 then pe s else term k s in
      sum (List.map var varying @ [ o ])

let in_bounds st ctx name subs =
  st.unsafe
  &&
  match ctx with
  | None -> false
  | Some ctx -> (
      match List.assoc_opt name st.shapes with
      | Some dims when List.length dims = List.length subs ->
          let ok =
            List.for_all2
              (fun (lo, hi) s -> ple ctx lo s && ple ctx s hi)
              dims subs
          in
          if ok then st.proved <- SS.add name st.proved;
          ok
      | _ -> false)

let rec pe st scope ctx (e : Expr.t) =
  match e with
  | Expr.Int n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Expr.Var v ->
      if SS.mem v scope then "i_" ^ low v else "!s_" ^ low v
  | Expr.Bin (op, a, b) ->
      let o =
        match op with
        | Expr.Add -> "+"
        | Expr.Sub -> "-"
        | Expr.Mul -> "*"
        | Expr.Div -> "/"
      in
      Printf.sprintf "(%s %s %s)" (pe st scope ctx a) o (pe st scope ctx b)
  | Expr.Min (a, b) ->
      Printf.sprintf "(imin %s %s)" (pe st scope ctx a) (pe st scope ctx b)
  | Expr.Max (a, b) ->
      Printf.sprintf "(imax %s %s)" (pe st scope ctx a) (pe st scope ctx b)
  | Expr.Idx (name, subs) ->
      let idx = flat_index st (pe st scope ctx) ~ipfx:"i" name subs in
      if in_bounds st ctx name subs then
        Printf.sprintf "(Array.unsafe_get ia_%s %s)" (low name) idx
      else Printf.sprintf "ia_%s.(%s)" (low name) idx

let rec pf st scope ctx (fe : Stmt.fexpr) =
  match fe with
  | Stmt.Fconst x -> float_lit x
  | Stmt.Fvar v -> "!f_" ^ low v
  | Stmt.Ref (name, subs) ->
      let idx = flat_index st (pe st scope ctx) ~ipfx:"" name subs in
      if in_bounds st ctx name subs then
        Printf.sprintf "(Array.unsafe_get a_%s %s)" (low name) idx
      else Printf.sprintf "a_%s.(%s)" (low name) idx
  | Stmt.Fbin (op, a, b) ->
      let o =
        match op with
        | Stmt.FAdd -> "+."
        | Stmt.FSub -> "-."
        | Stmt.FMul -> "*."
        | Stmt.FDiv -> "/."
      in
      Printf.sprintf "(%s %s %s)" (pf st scope ctx a) o (pf st scope ctx b)
  | Stmt.Fneg a -> Printf.sprintf "(-. %s)" (pf st scope ctx a)
  | Stmt.Fcall (("SQRT" | "DSQRT"), [ x ]) ->
      Printf.sprintf "(fsqrt %s)" (pf st scope ctx x)
  | Stmt.Fcall (("ABS" | "DABS"), [ x ]) ->
      Printf.sprintf "(Float.abs %s)" (pf st scope ctx x)
  | Stmt.Fcall (("SIGN" | "DSIGN"), [ a; b ]) ->
      Printf.sprintf "(fsign %s %s)" (pf st scope ctx a) (pf st scope ctx b)
  | Stmt.Fcall _ -> "0.0" (* rejected during collection *)
  | Stmt.Of_int e -> Printf.sprintf "(float_of_int %s)" (pe st scope ctx e)

let rel_op (r : Stmt.rel) =
  match r with
  | Stmt.Eq -> "="
  | Stmt.Ne -> "<>"
  | Stmt.Lt -> "<"
  | Stmt.Le -> "<="
  | Stmt.Gt -> ">"
  | Stmt.Ge -> ">="

let rec pc st scope ctx (c : Stmt.cond) =
  match c with
  | Stmt.Fcmp (r, a, b) ->
      (* Float.compare, as in the interpreter: total order, NaN = NaN. *)
      Printf.sprintf "(Float.compare %s %s %s 0)" (pf st scope ctx a)
        (pf st scope ctx b) (rel_op r)
  | Stmt.Icmp (r, a, b) ->
      Printf.sprintf "(%s %s %s)" (pe st scope ctx a) (rel_op r)
        (pe st scope ctx b)
  | Stmt.Not a -> Printf.sprintf "(not %s)" (pc st scope ctx a)
  | Stmt.And (a, b) ->
      Printf.sprintf "(%s && %s)" (pc st scope ctx a) (pc st scope ctx b)
  | Stmt.Or (a, b) ->
      Printf.sprintf "(%s || %s)" (pc st scope ctx a) (pc st scope ctx b)

let rec stmt st scope ctx ind (s : Stmt.t) =
  match s with
  | Stmt.Assign (name, [], rhs) ->
      line st ind "f_%s := %s;" (low name) (pf st scope ctx rhs)
  | Stmt.Assign (name, subs, rhs) ->
      let rhs = pf st scope ctx rhs in
      let idx = flat_index st (pe st scope ctx) ~ipfx:"" name subs in
      if in_bounds st ctx name subs then
        line st ind "Array.unsafe_set a_%s %s %s;" (low name) idx rhs
      else line st ind "a_%s.(%s) <- %s;" (low name) idx rhs
  | Stmt.Iassign (name, [], rhs) ->
      line st ind "s_%s := %s;" (low name) (pe st scope ctx rhs)
  | Stmt.Iassign (name, subs, rhs) ->
      let rhs = pe st scope ctx rhs in
      let idx = flat_index st (pe st scope ctx) ~ipfx:"i" name subs in
      if in_bounds st ctx name subs then
        line st ind "Array.unsafe_set ia_%s %s %s;" (low name) idx rhs
      else line st ind "ia_%s.(%s) <- %s;" (low name) idx rhs
  | Stmt.If (c, t, e) ->
      line st ind "if %s then begin" (pc st scope ctx c);
      block st scope ctx (ind + 1) t;
      if e = [] then line st ind "end;"
      else begin
        line st ind "end";
        line st ind "else begin";
        block st scope ctx (ind + 1) e;
        line st ind "end;"
      end
  | Stmt.Loop l ->
      let ix = low l.index in
      let inner_scope = SS.add l.index scope in
      (* A re-bound index invalidates the outer facts about its name; no
         way to retract them, so stop proving inside. *)
      let ctx' =
        if SS.mem l.index scope then None
        else Option.map (fun c -> enter_loop ~tainted:st.tainted c l) ctx
      in
      line st ind "let lo_%s = %s in" ix (pe st scope ctx l.lo);
      line st ind "let hi_%s = %s in" ix (pe st scope ctx l.hi);
      let step_one = l.step = Expr.Int 1 in
      if not step_one then begin
        line st ind "let st_%s = %s in" ix (pe st scope ctx l.step);
        line st ind "if st_%s = 0 then failwith \"DO %s: zero step\";" ix
          l.index;
        line st ind "let n_%s = (hi_%s - lo_%s + st_%s) / st_%s in" ix ix ix
          ix ix;
        line st ind "let r_%s = ref lo_%s in" ix ix
      end;
      (* The body goes to its own buffer first: the offsets it hoists
         are bound ahead of the [for]. *)
      let outer_body = st.body and outer_frame = st.frame in
      let fr = { index = l.index; hoisted = [] } in
      st.body <- Buffer.create 1024;
      st.frame <- Some fr;
      if not step_one then line st (ind + 1) "let i_%s = !r_%s in" ix ix;
      block st inner_scope ctx' (ind + 1) l.body;
      if not step_one then line st (ind + 1) "r_%s := i_%s + st_%s;" ix ix ix;
      let body = st.body in
      st.body <- outer_body;
      st.frame <- outer_frame;
      List.iter
        (fun (sum, o) -> line st ind "let %s = %s in" o sum)
        (List.rev fr.hoisted);
      if step_one then line st ind "for i_%s = lo_%s to hi_%s do" ix ix ix
      else line st ind "for _ = 1 to n_%s do" ix;
      Buffer.add_buffer st.body body;
      line st ind "done;"

and block st scope ctx ind = function
  | [] -> line st ind "();"
  | stmts -> List.iter (stmt st scope ctx ind) stmts

(* ---- assembly ----------------------------------------------------- *)

let header name =
  Printf.sprintf
    "(* %s — OCaml lowered from the mini-Fortran IR by blockc's codegen.\n\
    \   Self-contained (Stdlib only).  The host obtains [run] through the\n\
    \   Blockc_kernel exception raised when the plugin is loaded. *)\n"
    name

let fn_type =
  "(string -> int) * (string -> float) * (string -> float array)\n\
  \  * (string -> int array) * (string -> int array) * (string -> int array)\n\
  \  * (string -> float -> unit) * (string -> int -> unit) -> unit"

let source ?(unsafe = true) ?(shapes = []) ~name blk =
  let d = collect blk in
  match d.bad with
  | Some m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
  | None ->
      let st =
        {
          d;
          shapes;
          unsafe;
          tainted = d.isc_w;
          body = Buffer.create 4096;
          frame = None;
          hoists = 0;
          proved = SS.empty;
          assumed = SS.empty;
        }
      in
      let ctx, assumed = base_ctx ~tainted:st.tainted ~shapes blk in
      st.assumed <- assumed;
      block st SS.empty (Some ctx) 1 blk;
      (* The body pass recorded which arrays carry unchecked accesses
         and which parameters the proofs assumed positive; now build
         the prelude around it. *)
      let b = Buffer.create 8192 in
      let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
      out "%s\n" (header name);
      out "exception Blockc_kernel of\n  (%s)\n\n" fn_type;
      out "let imin (a : int) (b : int) = if a <= b then a else b\n";
      out "let imax (a : int) (b : int) = if a >= b then a else b\n\n";
      out
        "let fsqrt x =\n\
        \  if x < 0.0 then failwith (Printf.sprintf \"SQRT of negative %%g\" x)\n\
        \  else sqrt x\n\n";
      out "let fsign a b = if b >= 0.0 then Float.abs a else -.Float.abs a\n\n";
      out
        "let run ((geti : string -> int), (getf : string -> float),\n\
        \         (getfa : string -> float array), (getia : string -> int array),\n\
        \         (getfd : string -> int array), (getid : string -> int array),\n\
        \         (setf : string -> float -> unit), (seti : string -> int -> unit)) =\n";
      out "  ignore (geti, getf, getfa, getia, getfd, getid, setf, seti);\n";
      out "  ignore (imin, imax, fsqrt, fsign);\n";
      (* REAL arrays: buffer, dims, per-dimension lows and strides. *)
      let emit_arr ~ipfx ~data ~dims name rank =
        let nm = low name in
        out "  let %s%s = %s %S in\n" (if ipfx = "i" then "ia_" else "a_") nm
          data name;
        out "  let %sd_%s = %s %S in\n" ipfx nm dims name;
        out "  let %sl0_%s = %sd_%s.(0) in\n" ipfx nm ipfx nm;
        for k = 1 to rank - 1 do
          out "  let %sl%d_%s = %sd_%s.(%d) in\n" ipfx k nm ipfx nm (2 * k);
          let prev =
            if k = 1 then "1"
            else Printf.sprintf "%st%d_%s" ipfx (k - 1) nm
          in
          out "  let %st%d_%s = %s * (%sd_%s.(%d) - %sd_%s.(%d) + 1) in\n" ipfx
            k nm prev ipfx nm ((2 * (k - 1)) + 1) ipfx nm (2 * (k - 1))
        done
      in
      SM.iter (fun name rank -> emit_arr ~ipfx:"" ~data:"getfa" ~dims:"getfd" name rank) d.farr;
      SM.iter (fun name rank -> emit_arr ~ipfx:"i" ~data:"getia" ~dims:"getid" name rank) d.iarr;
      (* Scalars: refs initialized from the host (0 / 0.0 when unset),
         written back below. *)
      SS.iter
        (fun v -> out "  let s_%s = ref (geti %S) in\n" (low v) v)
        d.isc;
      SS.iter (fun v -> out "  let f_%s = ref (getf %S) in\n" (low v) v) d.fsc;
      (* Everything the in-bounds proofs assumed, re-checked: declared
         shapes match the actual dims, assumed parameters are >= 1. *)
      if not (SS.is_empty st.proved) then begin
        SS.iter
          (fun v ->
            out
              "  if !s_%s < 1 then failwith \"%s: unchecked accesses assume %s >= 1\";\n"
              (low v) name v)
          st.assumed;
        List.iter
          (fun (arr, dims) ->
            match SM.find_opt arr d.farr with
            | None -> ()
            | Some rank when rank <> List.length dims -> ()
            | Some _ ->
                let checks =
                  List.concat
                    (List.mapi
                       (fun k (lo, hi) ->
                         let p = pe st SS.empty None in
                         [
                           Printf.sprintf "d_%s.(%d) = %s" (low arr) (2 * k)
                             (p lo);
                           Printf.sprintf "d_%s.(%d) = %s" (low arr)
                             ((2 * k) + 1) (p hi);
                         ])
                       dims)
                in
                out
                  "  if not (%s) then failwith \"%s: %s dims differ from the declared shape\";\n"
                  (String.concat " && " checks) name arr)
          shapes
      end;
      Buffer.add_buffer b st.body;
      (* Write scalars back so the host environment sees the kernel's
         scalar results (loop indices stay internal, as in Fortran). *)
      SS.iter (fun v -> out "  seti %S !s_%s;\n" v (low v)) d.isc_w;
      SS.iter (fun v -> out "  setf %S !f_%s;\n" v (low v)) d.fsc_w;
      out "  ()\n\n";
      out "let () = raise (Blockc_kernel run)\n";
      Ok (Buffer.contents b)
