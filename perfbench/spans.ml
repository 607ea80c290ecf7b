(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   library's public functions; nothing inside the library is
   instrumented.  Each span has a name, a layer (a lib/ directory name,
   or "bench" for the harness itself), start and end times, the span
   that caused it, and a request id shared by every span of one
   operation.

   Three kinds of span:
   - [Real]: wall time around a call the workload makes anyway.
   - [Probe]: a decomposition probe.  A call such as [Database.prepare]
     hides several layers; after it returns, the traced run repeats
     its parts separately ([Fingerprint.fingerprint], the forced
     cardinality provider, [Optimizer.optimize_e]) and records each as a
     probe child of the prepare span.  Probes run outside every root
     span; their wall time is accounted for, but it is tracing overhead
     that an untraced run does not spend.
   - [Reported]: a duration the program itself reported (the server's
     per-request [exec_seconds]), attached as a child with no wall time
     of its own.

   A span's self time is its duration minus its children's durations;
   probe and reported children so move their share of a call from the
   caller's layer to their own.

   When tracing is off every entry point is a direct call. *)

type kind = Real | Probe | Reported

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  layer : string;
  name : string;
  req : int;
  kind : kind;
  t0 : int64;
  t1 : int64;
}

let on = ref false
let m = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0

(* open Real spans per thread, innermost first *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let record s = recorded := s :: !recorded

(* [timed ~req layer name f] runs [f] inside a Real span and returns its
   result with the span's id (-1 when tracing is off). *)
let timed ?(req = -1) layer name f =
  if not !on then (f (), -1)
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
          Hashtbl.replace stacks tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> -1))
    in
    let t0 = Util.now_ns () in
    let finish () =
      let t1 = Util.now_ns () in
      locked (fun () ->
          record { id; parent; layer; name; req; kind = Real; t0; t1 };
          match Hashtbl.find_opt stacks tid with
          | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
          | _ -> ())
    in
    let r = Fun.protect ~finally:finish f in
    (r, id)
  end

let span ?req layer name f = fst (timed ?req layer name f)

(* A decomposition probe attributed to [parent]; [None] (and [f] not
   run) when tracing is off or the parent was not recorded. *)
let probe ~parent ?(req = -1) layer name f =
  if (not !on) || parent < 0 then None
  else begin
    let t0 = Util.now_ns () in
    let r = f () in
    let t1 = Util.now_ns () in
    locked (fun () ->
        let id = !next_id in
        incr next_id;
        record { id; parent; layer; name; req; kind = Probe; t0; t1 });
    Some r
  end

let reported ~parent ?(req = -1) layer name ~seconds =
  if !on && parent >= 0 then
    locked (fun () ->
        let id = !next_id in
        incr next_id;
        let d = Int64.of_float (seconds *. 1e9) in
        record { id; parent; layer; name; req; kind = Reported; t0 = 0L; t1 = d })

(* ---------- analysis ---------- *)

let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6
let all () = locked (fun () -> List.rev !recorded)

(* Self time per layer, in ms, over every recorded span.  A probe
   slower than the call it decomposes leaves that call 0 self time. *)
let self_by_layer spans =
  let child_ms = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (dur_ms s +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.0))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur_ms s -. Option.value (Hashtbl.find_opt child_ms s.id) ~default:0.0 in
      Hashtbl.replace by_layer s.layer
        (Float.max 0.0 self
        +. Option.value (Hashtbl.find_opt by_layer s.layer) ~default:0.0))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []

(* Wall time (ms) inside [w0, w1] covered by at least one Real root or
   probe: what the trace accounts for. *)
let covered_ms spans ~w0 ~w1 =
  let roots =
    List.filter_map
      (fun s ->
        if (s.kind = Real && s.parent < 0) || s.kind = Probe then
          let a = max s.t0 w0 and b = min s.t1 w1 in
          if b > a then Some (a, b) else None
        else None)
      spans
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) roots
  in
  let total =
    match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total
  in
  Int64.to_float total /. 1e6

(* Durations of every span with this name. *)
let durations spans name =
  List.filter_map (fun s -> if s.name = name then Some (dur_ms s) else None) spans

let kind_name = function Real -> "real" | Probe -> "probe" | Reported -> "reported"

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Util.Json.to_string
           (Util.Json.Obj
              [
                ("id", Util.Json.Int s.id);
                ("parent", Util.Json.Int s.parent);
                ("layer", Util.Json.Str s.layer);
                ("name", Util.Json.Str s.name);
                ("req", Util.Json.Int s.req);
                ("kind", Util.Json.Str (kind_name s.kind));
                ("start_ns", Util.Json.Str (Int64.to_string s.t0));
                ("end_ns", Util.Json.Str (Int64.to_string s.t1));
              ]));
      output_char oc '\n')
    spans;
  close_out oc
