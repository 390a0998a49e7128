(** Typed configuration timeline, reconstructed from the engine trace.

    Turns the framework's trace records into the milestone sequence of
    one autoconfiguration run — the machine-readable version of the
    demo's GUI. *)

type milestone =
  | Switch_detected of int64
  | Link_detected of string  (** rendered link description *)
  | Vm_boot_started of int64
  | Vm_ready of int64
  | Vm_configured of int64  (** config files applied *)

type entry = { at : Rf_sim.Vtime.t; milestone : milestone }

val of_scenario : Scenario.t -> entry list

type summary = {
  switches_detected : int;
  links_detected : int;
  vms_ready : int;
  vms_configured : int;
  first_detection_s : float option;
  last_vm_ready_s : float option;
  last_configured_s : float option;
}

val summarize : entry list -> summary

val render : entry list -> string
