module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Timeseries = Skyloft_stats.Timeseries

type bounds = { guaranteed : int; burstable : int }
type raw = { runq_len : int; oldest_delay : Time.t; busy_ns : int }
type action = Granted | Reclaimed | Yielded | Degraded | Recovered

type event = {
  at : Time.t;
  app : int;
  app_name : string;
  action : action;
  delta : int;
  granted : int;
}

type config = {
  policy : Policy.t;
  interval : Time.t;
  be_guaranteed : int;
  be_burstable : int option;
  degrade_after : int option;
}

let default_config () =
  {
    policy = Policy.static ();
    interval = Time.us 5;
    be_guaranteed = 0;
    be_burstable = None;
    degrade_after = None;
  }

type binding = {
  id : int;
  app_name : string;
  kind : Policy.kind;
  bounds : bounds;
  sample : unit -> raw;
  apply : granted:int -> delta:int -> Time.t;
  mutable granted : int;
  mutable last_busy_ns : int;
  mutable stale_ticks : int;  (* consecutive ticks with a frozen signal *)
  series : Timeseries.t;
  (* Per-tick scratch, so a tick builds no list, tuple or closure: *)
  mutable signal : Policy.signal;  (* this tick's sample, as the policy sees it *)
  mutable decision : Policy.decision;  (* the policy's answer to [signal] *)
}

type t = {
  engine : Engine.t;
  policy : Policy.t;
  interval : Time.t;
  total_cores : int;
  on_event : event -> unit;
  degrade_after : int option;
  fallback : Policy.t;  (* Static, used while degraded *)
  mutable degraded : bool;
  mutable degradations : int;
  mutable apps : binding list;  (* registration order *)
  event_log : event Queue.t;
  mutable grants : int;
  mutable reclaims : int;
  mutable yields : int;
  mutable ticks : int;
  mutable charged_ns : Time.t;
  mutable running : bool;
}

let event_log_cap = 4096

let create ~engine ~policy ~interval ~total_cores ?(on_event = ignore)
    ?degrade_after () =
  if interval <= 0 then invalid_arg "Allocator.create: interval must be positive";
  if total_cores <= 0 then invalid_arg "Allocator.create: total_cores must be positive";
  (match degrade_after with
  | Some n when n <= 0 -> invalid_arg "Allocator.create: degrade_after must be positive"
  | Some _ | None -> ());
  {
    engine;
    policy;
    interval;
    total_cores;
    on_event;
    degrade_after;
    fallback = Policy.static ();
    degraded = false;
    degradations = 0;
    apps = [];
    event_log = Queue.create ();
    grants = 0;
    reclaims = 0;
    yields = 0;
    ticks = 0;
    charged_ns = 0;
    running = false;
  }

let sum_granted t = List.fold_left (fun acc b -> acc + b.granted) 0 t.apps
let free_cores t = t.total_cores - sum_granted t

let find t app =
  match List.find_opt (fun b -> b.id = app) t.apps with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Allocator: unregistered app %d" app)

let register t ~app ~name ~kind ~bounds ~initial ~sample ~apply =
  if List.exists (fun b -> b.id = app) t.apps then
    invalid_arg "Allocator.register: app already registered";
  if bounds.guaranteed < 0 || bounds.guaranteed > bounds.burstable then
    invalid_arg "Allocator.register: need 0 <= guaranteed <= burstable";
  if bounds.burstable > t.total_cores then
    invalid_arg "Allocator.register: burstable exceeds the core pool";
  if initial < bounds.guaranteed || initial > bounds.burstable then
    invalid_arg "Allocator.register: initial grant outside bounds";
  if initial > free_cores t then
    invalid_arg "Allocator.register: initial grants exceed the core pool";
  let b =
    {
      id = app;
      app_name = name;
      kind;
      bounds;
      sample;
      apply;
      granted = initial;
      last_busy_ns = (sample ()).busy_ns;
      stale_ticks = 0;
      series = Timeseries.create ();
      signal =
        {
          Policy.kind;
          cores = initial;
          runq_len = 0;
          oldest_delay = 0;
          utilization = 0.0;
        };
      decision = Policy.Hold;
    }
  in
  Timeseries.record b.series ~at:(Engine.now t.engine) initial;
  t.apps <- t.apps @ [ b ]

(* Apply one accepted transition: adjust the grant, inform the runtime,
   charge its switch cost, and log the event. *)
let transition t b ~action ~delta =
  if delta = 0 then ()
  else begin
    b.granted <- b.granted + delta;
    t.charged_ns <- t.charged_ns + b.apply ~granted:b.granted ~delta;
    (match action with
    | Granted -> t.grants <- t.grants + 1
    | Reclaimed -> t.reclaims <- t.reclaims + 1
    | Yielded -> t.yields <- t.yields + 1
    | Degraded | Recovered -> ());
    let ev =
      {
        at = Engine.now t.engine;
        app = b.id;
        app_name = b.app_name;
        action;
        delta = abs delta;
        granted = b.granted;
      }
    in
    Timeseries.record b.series ~at:ev.at b.granted;
    if Queue.length t.event_log >= event_log_cap then ignore (Queue.pop t.event_log);
    Queue.push ev t.event_log;
    t.on_event ev
  end

(* Derive [b]'s policy-facing signal from its raw sample into [b.signal].
   Signals are immutable, so one equal to the previous tick's — the
   steady state of an idle or saturated app — is kept rather than rebuilt. *)
let signal_of t b (r : raw) =
  let busy = max 0 (r.busy_ns - b.last_busy_ns) in
  b.last_busy_ns <- r.busy_ns;
  (* Staleness: cores granted and work queued, yet zero progress — the
     congestion signal is frozen (stuck tasks, stolen cores, lost ticks)
     and adaptive policies would act on fiction. *)
  if busy = 0 && r.runq_len > 0 && b.granted > 0 then
    b.stale_ticks <- b.stale_ticks + 1
  else b.stale_ticks <- 0;
  let utilization =
    float_of_int busy /. float_of_int (t.interval * max 1 b.granted)
  in
  let s = b.signal in
  if
    not
      (s.Policy.cores = b.granted
      && s.Policy.runq_len = r.runq_len
      && s.Policy.oldest_delay = r.oldest_delay
      && Float.equal s.Policy.utilization utilization)
  then
    b.signal <-
      {
        Policy.kind = b.kind;
        cores = b.granted;
        runq_len = r.runq_len;
        oldest_delay = r.oldest_delay;
        utilization;
      }

(* Mode transitions bypass {!transition}: they move no cores. *)
let emit_mode t action =
  let ev =
    {
      at = Engine.now t.engine;
      app = -1;
      app_name = "allocator";
      action;
      delta = 0;
      granted = sum_granted t;
    }
  in
  if Queue.length t.event_log >= event_log_cap then ignore (Queue.pop t.event_log);
  Queue.push ev t.event_log;
  t.on_event ev

let rec any_stale n = function
  | [] -> false
  | b :: rest -> b.stale_ticks >= n || any_stale n rest

let update_mode t =
  match t.degrade_after with
  | None -> ()
  | Some n ->
      let stale = any_stale n t.apps in
      if stale && not t.degraded then begin
        t.degraded <- true;
        t.degradations <- t.degradations + 1;
        emit_mode t Degraded
      end
      else if (not stale) && t.degraded then begin
        t.degraded <- false;
        emit_mode t Recovered
      end

(* The tick's phases, each one walk over [t.apps] in registration order,
   reading and writing the bindings' scratch fields; the free pool is
   threaded through as the walks' result. *)

let rec sample_all t = function
  | [] -> ()
  | b :: rest ->
      signal_of t b (b.sample ());
      sample_all t rest

let rec observe_all policy = function
  | [] -> ()
  | b :: rest ->
      b.decision <- Policy.observe policy ~app:b.id b.signal;
      observe_all policy rest

(* 1. voluntary yields refill the pool (never below the guaranteed floor) *)
let rec yields t free = function
  | [] -> free
  | b :: rest -> (
      match b.decision with
      | Policy.Yield n ->
          let n = min n (b.granted - b.bounds.guaranteed) in
          if n > 0 then begin
            transition t b ~action:Yielded ~delta:(-n);
            yields t (free + n) rest
          end
          else yields t free rest
      | Policy.Grant _ | Policy.Hold -> yields t free rest)

(* An LC grant still short by [want] cores steals from BE donors above
   their guaranteed floor, in registration order. *)
let rec steal_from_be t b want = function
  | [] -> ()
  | donor :: rest ->
      if want > 0 && donor.kind = Policy.Be then begin
        let steal = min want (donor.granted - donor.bounds.guaranteed) in
        if steal > 0 then begin
          transition t donor ~action:Reclaimed ~delta:(-steal);
          transition t b ~action:Granted ~delta:steal;
          steal_from_be t b (want - steal) rest
        end
        else steal_from_be t b want rest
      end
      else steal_from_be t b want rest

(* 2. LC grants: free pool first, then steal from BE above guaranteed *)
let rec lc_grants t free = function
  | [] -> free
  | b :: rest -> (
      match (b.kind, b.decision) with
      | Policy.Lc, Policy.Grant n ->
          let want = min n (b.bounds.burstable - b.granted) in
          let from_free = max 0 (min want free) in
          if from_free > 0 then transition t b ~action:Granted ~delta:from_free;
          steal_from_be t b (want - from_free) t.apps;
          lc_grants t (free - from_free) rest
      | _ -> lc_grants t free rest)

(* 3. BE grants: whatever the pool still holds *)
let rec be_grants t free = function
  | [] -> ()
  | b :: rest -> (
      match (b.kind, b.decision) with
      | Policy.Be, Policy.Grant n ->
          let take = min (min n (b.bounds.burstable - b.granted)) free in
          if take > 0 then begin
            transition t b ~action:Granted ~delta:take;
            be_grants t (free - take) rest
          end
          else be_grants t free rest
      | _ -> be_grants t free rest)

let tick t =
  t.ticks <- t.ticks + 1;
  sample_all t t.apps;
  update_mode t;
  (* Graceful degradation: while congestion signals are stale, decide with
     the predictable Static fallback instead of an adaptive policy whose
     hysteresis state is being fed frozen inputs. *)
  let policy = if t.degraded then t.fallback else t.policy in
  observe_all policy t.apps;
  let free = yields t (free_cores t) t.apps in
  let free = lc_grants t free t.apps in
  be_grants t free t.apps

let start t =
  if t.running then invalid_arg "Allocator.start: already running";
  t.running <- true;
  Engine.every t.engine ~period:t.interval (fun () ->
      if t.running then tick t;
      t.running)

let stop t = t.running <- false
let granted t ~app = (find t app).granted
let series t ~app = (find t app).series
let grants t = t.grants
let reclaims t = t.reclaims
let yields t = t.yields
let ticks t = t.ticks
let charged_ns t = t.charged_ns
let events t = List.of_seq (Queue.to_seq t.event_log)
let degraded t = t.degraded
let degradations t = t.degradations

let policy_name t =
  if t.degraded then Policy.name t.fallback else Policy.name t.policy

let interval t = t.interval

(* Pull-based registration: closures read allocator state only at snapshot
   time, so attaching a registry cannot perturb the control loop. *)
let register_metrics t ?(labels = []) reg =
  let module Registry = Skyloft_obs.Registry in
  let c name help read = Registry.counter reg ~help ~labels name read in
  c "skyloft_alloc_grants_total" "Core grants applied" (fun () -> t.grants);
  c "skyloft_alloc_reclaims_total" "Forced core reclaims (LC steals)"
    (fun () -> t.reclaims);
  c "skyloft_alloc_yields_total" "Voluntary core yields" (fun () -> t.yields);
  c "skyloft_alloc_ticks_total" "Controller sampling rounds" (fun () ->
      t.ticks);
  c "skyloft_alloc_charged_ns_total"
    "Switch cost charged for allocator transitions" (fun () -> t.charged_ns);
  c "skyloft_alloc_degradations_total"
    "Falls back to the Static policy on stale signals" (fun () ->
      t.degradations);
  Registry.gauge reg ~labels "skyloft_alloc_free_cores"
    ~help:"Cores currently in the free pool" (fun () ->
      float_of_int (free_cores t));
  Registry.gauge reg ~labels "skyloft_alloc_degraded"
    ~help:"1 while deciding with the Static fallback" (fun () ->
      if t.degraded then 1.0 else 0.0);
  List.iter
    (fun b ->
      let al = labels @ [ Registry.app b.app_name ] in
      Registry.gauge reg ~labels:al "skyloft_alloc_granted_cores"
        ~help:"Cores currently granted" (fun () -> float_of_int b.granted);
      Registry.series reg ~labels:al "skyloft_alloc_granted_series"
        ~help:"Granted core count over time" b.series)
    t.apps
