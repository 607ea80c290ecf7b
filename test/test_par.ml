(* The multicore layer, tested two ways.

   Differential: the parallel paths — sharded Stack-Tree kernels, the
   executor's pool plumbing, the workload fan-out — must produce
   bit-identical tuples, orderings and work counters (including
   [items_skipped]) to their serial runs, on randomized documents and
   for every pool size.

   Regression: each shared-state fix (Registry atomics, Lru/Plan_cache
   locking, Budget atomic cancellation, Chaos per-query derivation) gets
   a test that fails on the pre-fix code: hammered counters must come
   out exact, cancellation must be visible across domains, and fault
   injection must not depend on query order or domain scheduling.

   Seeds are deterministic; CI varies the base via SJOS_PAR_SEED so
   different runs explore different documents while any failure stays
   replayable from its seed. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_exec
open Sjos_engine
module Pool = Sjos_par.Pool
module Lru = Sjos_cache.Lru
module Budget = Sjos_guard.Budget
module Chaos = Sjos_guard.Chaos
module Registry = Sjos_obs.Registry

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let seed_base =
  match Sys.getenv_opt "SJOS_PAR_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 7)
  | None -> 7

let with_pool n f =
  let p = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ---------- comparison helpers ---------- *)

let check_same_tuple_seq msg (expected : Tuple.t array) (actual : Tuple.t array)
    =
  check ci (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i t ->
      if not (Tuple.equal t actual.(i)) then
        Alcotest.failf "%s: tuple %d differs: %s vs %s" msg i
          (Tuple.to_string t)
          (Tuple.to_string actual.(i)))
    expected

(* ---------- the pool itself ---------- *)

let test_pool_basics () =
  with_pool 4 @@ fun p ->
  check ci "size" 4 (Pool.size p);
  let r = Pool.run p 100 (fun i -> (i * i) + 1) in
  Array.iteri (fun i v -> check ci "result order" ((i * i) + 1) v) r;
  check ci "empty batch" 0 (Array.length (Pool.run p 0 (fun i -> i)));
  (* nested run executes inline instead of deadlocking the fixed pool *)
  let nested =
    Pool.run p 4 (fun i ->
        Array.fold_left ( + ) 0 (Pool.run p 5 (fun j -> (10 * i) + j)))
  in
  Array.iteri (fun i v -> check ci "nested sum" ((50 * i) + 10) v) nested;
  let s = Pool.run Pool.serial 7 (fun i -> i * 3) in
  Array.iteri (fun i v -> check ci "serial pool" (i * 3) v) s

exception Boom of int

let test_pool_exceptions () =
  with_pool 3 @@ fun p ->
  let ran = Atomic.make 0 in
  (match
     Pool.run p 8 (fun i ->
         Atomic.incr ran;
         if i >= 3 then raise (Boom i);
         i)
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> check ci "lowest-index exception wins" 3 i);
  check ci "all tasks still ran" 8 (Atomic.get ran)

let test_pool_shutdown () =
  let p = Pool.create ~domains:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  let r = Pool.run p 5 (fun i -> i + 1) in
  Array.iteri (fun i v -> check ci "run after shutdown is serial" (i + 1) v) r

let test_default_pool () =
  (* the default pool is env-sized and process-wide; whatever its size,
     it must run correctly *)
  let p = Pool.get_default () in
  check cb "default size >= 1" true (Pool.size p >= 1);
  let r = Pool.run p 9 (fun i -> i * 7) in
  Array.iteri (fun i v -> check ci "default pool result" (i * 7) v) r

(* ---------- sharded kernels: differential vs. serial ---------- *)

let docs_under_test seed =
  [
    ("pers", Sjos_datagen.Pers.generate ~seed ~target_nodes:600 ());
    ("dblp", Sjos_datagen.Dblp.generate ~seed:(seed + 1) ~target_nodes:600 ());
    ( "mbench",
      Sjos_datagen.Mbench.generate ~seed:(seed + 2) ~target_nodes:600 () );
  ]

let scan idx tag slot width =
  Operators.index_scan ~width ~slot (Element_index.lookup idx tag)

let join_with ?pool ~doc ~idx ~atag ~dtag ~axis ~algo () =
  Sjos_obs.Work.measure (fun () ->
      let anc = scan idx atag 0 2 in
      let desc = scan idx dtag 1 2 in
      Stack_tree.join ?pool ~par_min_rows:0 ~doc ~axis ~algo ~anc:(anc, 0)
        ~desc:(desc, 1) ())

let test_kernel_shard_differential () =
  [ 2; 4 ]
  |> List.iter @@ fun domains ->
     with_pool domains @@ fun pool ->
     List.iter
       (fun (name, doc) ->
         let idx = Element_index.build doc in
         let tags = Array.of_list (Document.tags doc) in
         let rng = Sjos_datagen.Rng.create (seed_base + 31 + domains) in
         for case = 0 to 11 do
           let atag = tags.(Sjos_datagen.Rng.int rng (Array.length tags)) in
           let dtag =
             (* every fourth case is a self-join: the equal-start edge
                (same node on both sides) exercises the shard boundary *)
             if case mod 4 = 0 then atag
             else tags.(Sjos_datagen.Rng.int rng (Array.length tags))
           in
           List.iter
             (fun axis ->
               List.iter
                 (fun algo ->
                   let msg =
                     Printf.sprintf "%dd %s %s->%s %s/%s" domains name atag
                       dtag
                       (match axis with Axes.Child -> "child" | _ -> "desc")
                       (match algo with
                       | Plan.Stack_tree_desc -> "STJ-D"
                       | Plan.Stack_tree_anc -> "STJ-A")
                   in
                   let serial, sm =
                     join_with ~doc ~idx ~atag ~dtag ~axis ~algo ()
                   in
                   let par, pm =
                     join_with ~pool ~doc ~idx ~atag ~dtag ~axis ~algo ()
                   in
                   check_same_tuple_seq msg serial par;
                   (* every counter, items_skipped included: the sharded
                      kernels claim bit-identical accounting, not just
                      bit-identical output *)
                   Helpers.check_work msg sm pm)
                 [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ])
             [ Axes.Descendant; Axes.Child ]
         done)
       (docs_under_test (seed_base + domains))

(* ---------- whole-workload differential ---------- *)

let workload_dbs () =
  let size = function
    | Workload.Mbench -> 12_000
    | Workload.Dblp -> 10_000
    | Workload.Pers -> 6_000
  in
  let dbs =
    List.map
      (fun ds -> (ds, Database.of_document (Workload.generate ~size:(size ds) ds)))
      Workload.all_datasets
  in
  fun ds -> List.assoc ds dbs

let test_workload_differential () =
  let db_for = workload_dbs () in
  let opts = Query_opts.make ~use_cache:false () in
  let reference = Workload.run_all ~opts ~pool:Pool.serial db_for in
  [ 2; 4 ]
  |> List.iter @@ fun domains ->
     with_pool domains @@ fun pool ->
     let par = Workload.run_all ~opts ~pool db_for in
     check ci "same query count" (Array.length reference) (Array.length par);
     Array.iteri
       (fun i ((q : Workload.query), (r : Database.query_run)) ->
         let q', r' = par.(i) in
         let msg = Printf.sprintf "%dd %s" domains q.Workload.id in
         check Alcotest.string (msg ^ ": order") q.Workload.id q'.Workload.id;
         check ci (msg ^ ": plans considered")
           r.Database.opt.Sjos_core.Optimizer.plans_considered
           r'.Database.opt.Sjos_core.Optimizer.plans_considered;
         check_same_tuple_seq msg r.Database.exec.Executor.tuples
           r'.Database.exec.Executor.tuples;
         Helpers.check_work msg r.Database.exec.Executor.work
           r'.Database.exec.Executor.work)
       reference

(* ---------- regression: Registry under concurrency ---------- *)

let test_registry_concurrent () =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Registry.reset ();
      Registry.set_enabled false)
  @@ fun () ->
  with_pool 4 @@ fun p ->
  let per = 25_000 in
  (* find_or_add raced from every domain must yield one shared counter,
     and no increment may be lost *)
  ignore
    (Pool.run p 4 (fun _ ->
         let c = Registry.counter "par.hammer" in
         for _ = 1 to per do
           Registry.incr c
         done));
  check ci "no lost increments" (4 * per)
    (Registry.counter_value (Registry.counter "par.hammer"));
  ignore
    (Pool.run p 4 (fun d ->
         Registry.add (Registry.counter "par.add") (d + 1)));
  check ci "adds sum exactly" 10
    (Registry.counter_value (Registry.counter "par.add"));
  ignore
    (Pool.run p 4 (fun _ ->
         let t = Registry.timer "par.timer" in
         for _ = 1 to 1_000 do
           Registry.add_seconds t 0.001
         done));
  check ci "timer count exact" 4_000 (Registry.timer_count (Registry.timer "par.timer"))

(* ---------- regression: Lru / Plan_cache under concurrency ---------- *)

let test_lru_concurrent () =
  with_pool 2 @@ fun p ->
  let lru = Lru.create ~capacity:16 in
  ignore
    (Pool.run p 2 (fun d ->
         for k = 0 to 5_000 do
           let key = string_of_int ((k * ((7 * d) + 3)) mod 64) in
           (match Lru.find lru key with
           | Some _ -> ()
           | None -> ignore (Lru.add lru key (k, d)));
           if k mod 97 = 0 then Lru.remove lru key
         done));
  let len = Lru.length lru in
  check cb "within capacity" true (len <= 16);
  let l = Lru.to_list lru in
  check ci "to_list agrees with length" len (List.length l);
  let keys = List.map fst l in
  check ci "keys unique" len (List.length (List.sort_uniq compare keys))

let test_plan_cache_concurrent () =
  with_pool 2 @@ fun p ->
  let pc = Sjos_cache.Plan_cache.create ~capacity:8 () in
  let entry =
    { Sjos_cache.Plan_cache.plan_text = "t"; est_cost = 1.0; algorithm = "DPP" }
  in
  let finds =
    Pool.run p 2 (fun d ->
        let n = ref 0 in
        for k = 0 to 4_000 do
          let key = string_of_int ((k * ((5 * d) + 1)) mod 24) in
          incr n;
          (match Sjos_cache.Plan_cache.find pc key with
          | Some _ -> ()
          | None -> Sjos_cache.Plan_cache.add pc key entry);
          if d = 0 && k mod 1_000 = 0 then
            Sjos_cache.Plan_cache.bump_epoch pc
        done;
        !n)
  in
  let total_finds = Array.fold_left ( + ) 0 finds in
  let s = Sjos_cache.Plan_cache.stats pc in
  check ci "hits + misses = finds" total_finds
    (s.Sjos_cache.Plan_cache.hits + s.Sjos_cache.Plan_cache.misses);
  check cb "entries within capacity" true
    (s.Sjos_cache.Plan_cache.entries <= s.Sjos_cache.Plan_cache.capacity);
  check cb "invalidations counted as misses" true
    (s.Sjos_cache.Plan_cache.invalidations <= s.Sjos_cache.Plan_cache.misses)

(* ---------- regression: Budget cancellation across domains ---------- *)

let test_budget_cross_domain_cancel () =
  (* an explicit flag: [make ()] with no ceilings normalizes to the
     uncancellable [unlimited] *)
  let b = Budget.make ~cancelled:(Atomic.make false) () in
  with_pool 2 @@ fun p ->
  let r =
    Pool.run p 2 (fun i ->
        if i = 0 then begin
          Budget.cancel b;
          0
        end
        else begin
          (* must observe the other domain's write; pre-fix (a plain
             bool field) nothing forces it to become visible.  Bounded
             so a broken cancel fails the test instead of hanging it. *)
          let t0 = Sjos_obs.Clock.now_ns () in
          while
            Budget.poll b <> Some Budget.Cancelled
            && Sjos_obs.Clock.elapsed_seconds ~since:t0 < 30.0
          do
            Domain.cpu_relax ()
          done;
          if Budget.poll b = Some Budget.Cancelled then 1 else -1
        end)
  in
  check ci "worker saw the cancel" 1 r.(1);
  check cb "cancel is sticky" true (Budget.poll b = Some Budget.Cancelled);
  match Budget.cancel Budget.unlimited with
  | () -> Alcotest.fail "cancelling the unlimited budget must be rejected"
  | exception Invalid_argument _ -> ()

let test_budget_cancel_aborts_execution () =
  let db_for = workload_dbs () in
  let q = Workload.q_pers_3_d in
  let db = db_for q.Workload.dataset in
  with_pool 2 @@ fun pool ->
  let b = Budget.make ~cancelled:(Atomic.make false) () in
  let opts = Query_opts.make ~use_cache:false ~budget:b ~pool () in
  let prep = Database.prepare ~opts db q.Workload.pattern in
  Budget.cancel b;
  match Database.exec prep with
  | _ -> Alcotest.fail "cancelled budget did not abort execution"
  | exception Budget.Exhausted { resource = Budget.Cancelled; _ } -> ()

(* ---------- regression: Chaos independent of order and scheduling ---------- *)

let chaos_faults = [ Chaos.Truncate_candidates; Chaos.Lie_cardinalities ]

(* Matches per query id, plus the shared injection total, for one parent
   chaos instance consumed by the given driver. *)
let chaos_run driver =
  let c = Chaos.create ~faults:chaos_faults ~seed:(seed_base + 41) () in
  let opts = Query_opts.make ~chaos:c () in
  let outcomes = driver opts in
  (outcomes, Chaos.injected c)

let test_chaos_schedule_independent () =
  let db_for = workload_dbs () in
  let serial order opts =
    List.map
      (fun (q : Workload.query) ->
        let r = Database.run ~opts (db_for q.Workload.dataset) q.Workload.pattern in
        (q.Workload.id, Array.length r.Database.exec.Executor.tuples))
      order
    |> List.sort compare
  in
  let forward, inj_fwd = chaos_run (serial Workload.queries) in
  let backward, inj_bwd = chaos_run (serial (List.rev Workload.queries)) in
  let parallel, inj_par =
    chaos_run (fun opts ->
        with_pool 4 @@ fun pool ->
        Workload.run_all ~opts ~pool db_for
        |> Array.to_list
        |> List.map (fun ((q : Workload.query), (r : Database.query_run)) ->
               (q.Workload.id, Array.length r.Database.exec.Executor.tuples))
        |> List.sort compare)
  in
  check cb "some faults actually fired" true (inj_fwd > 0);
  check ci "same injection total reversed" inj_fwd inj_bwd;
  check ci "same injection total parallel" inj_fwd inj_par;
  List.iter2
    (fun (id, m) (id', m') ->
      check Alcotest.string "query id" id id';
      check ci (id ^ ": matches independent of order") m m')
    forward backward;
  List.iter2
    (fun (id, m) (id', m') ->
      check Alcotest.string "query id" id id';
      check ci (id ^ ": matches independent of scheduling") m m')
    forward parallel

let test_chaos_derive_pure () =
  let c = Chaos.create ~faults:chaos_faults ~seed:(seed_base + 43) () in
  let a1 = Chaos.derive c ~key:"fp-a" in
  (* drawing from one child must not perturb a sibling derived later *)
  ignore (Chaos.wrap_candidates a1 [||]);
  let b = Chaos.derive c ~key:"fp-b" in
  let a2 = Chaos.derive c ~key:"fp-a" in
  check ci "same key, same stream" (Chaos.seed a1) (Chaos.seed a2);
  check cb "distinct keys, distinct streams" true (Chaos.seed a1 <> Chaos.seed b)

let suite =
  [
    Alcotest.test_case "pool: results in index order" `Quick test_pool_basics;
    Alcotest.test_case "pool: deterministic exceptions" `Quick
      test_pool_exceptions;
    Alcotest.test_case "pool: shutdown is safe" `Quick test_pool_shutdown;
    Alcotest.test_case "pool: env-sized default" `Quick test_default_pool;
    Alcotest.test_case "sharded kernels = serial kernels (tuples + metrics)"
      `Quick test_kernel_shard_differential;
    Alcotest.test_case "parallel workload = serial workload" `Quick
      test_workload_differential;
    Alcotest.test_case "registry: exact counts under contention" `Quick
      test_registry_concurrent;
    Alcotest.test_case "lru: invariants under contention" `Quick
      test_lru_concurrent;
    Alcotest.test_case "plan cache: counters agree with outcomes" `Quick
      test_plan_cache_concurrent;
    Alcotest.test_case "budget: cancellation visible across domains" `Quick
      test_budget_cross_domain_cancel;
    Alcotest.test_case "budget: cancel aborts a pooled execution" `Quick
      test_budget_cancel_aborts_execution;
    Alcotest.test_case "chaos: faults independent of order and scheduling"
      `Quick test_chaos_schedule_independent;
    Alcotest.test_case "chaos: derivation is pure and keyed" `Quick
      test_chaos_derive_pure;
  ]
