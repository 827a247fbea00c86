type config = {
  traffic : Server.Traffic.config;
  dispatch : Server.Dispatch.config;
  defense : Defenses.Defense.t;
}

let default =
  {
    traffic = Server.Traffic.default;
    dispatch = Server.Dispatch.default;
    defense = Defenses.Defense.Smokestack Smokestack.Config.default;
  }

type t = {
  config : config;
  fleet : int;
  scheduled : int * int * int;
  summary : Server.Metrics.summary;
  by_tenant : Sutil.Texttable.t;
  by_class : Sutil.Texttable.t;
}

(* Only the report leaves [run]: the tenants, their prepared instances
   and the per-session outcomes die with it. *)
let run ?pool ~backend ?(config = default) () =
  let tenants =
    Server.Tenant.fleet ~defense:config.defense ~root:config.traffic.root ()
  in
  let specs = Server.Traffic.generate ?pool config.traffic tenants in
  let dispatch =
    Server.Dispatch.run ?pool ~backend ~config:config.dispatch tenants specs
  in
  {
    config;
    fleet = List.length tenants;
    scheduled = Server.Traffic.census specs;
    summary = Server.Metrics.of_dispatch dispatch;
    by_tenant = Server.Metrics.tenant_table tenants dispatch;
    by_class = Server.Metrics.class_table dispatch;
  }

let summary_table t = Server.Metrics.table t.summary
let tenant_table t = t.by_tenant
let class_table t = t.by_class

let output t =
  let benign, attack, chaos = t.scheduled in
  let title = "E15: server runtime — mixed benign+attack traffic under load" in
  [
    Output.text "%s" title;
    Output.text
      "%d sessions over %d tenants (defense: %s): %d benign, %d attack, %d chaos; %d virtual \
       handlers, queue capacity %d."
      t.summary.Server.Metrics.sessions t.fleet
      (Defenses.Defense.name t.config.defense)
      benign attack chaos t.config.dispatch.Server.Dispatch.virtual_workers
      t.config.dispatch.Server.Dispatch.queue_capacity;
    Output.table ~form:Output.Ascii "server" title (summary_table t);
    Output.table "server_tenants" "E15: per-tenant service and security" (tenant_table t);
    Output.text
      "served attack sessions carry the batch harness's verdict: %d/%d checked, %d mismatches."
      t.summary.Server.Metrics.batch_checked t.summary.Server.Metrics.batch_checked
      t.summary.Server.Metrics.batch_mismatches;
  ]
