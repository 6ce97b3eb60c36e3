#include "core/master.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace alphawan {

MasterNode::MasterNode(MasterConfig config) : config_(config) {
  // Written so NaN fails too: a NaN overlap would give an empty plan (one
  // network) or an undefined int conversion in plan_offset_step (several).
  if (!(config_.desired_overlap >= 0.0 && config_.desired_overlap <= 0.95)) {
    throw std::invalid_argument(
        "MasterConfig::desired_overlap must be in [0, 0.95], got " +
        std::to_string(config_.desired_overlap));
  }
  if (config_.expected_networks < 1) {
    throw std::invalid_argument(
        "MasterConfig::expected_networks must be >= 1, got " +
        std::to_string(config_.expected_networks));
  }
}

Hz MasterNode::plan_offset_step() const {
  const Hz desired_delta =
      (1.0 - config_.desired_overlap) * kLoRaBandwidth125k;
  const int networks =
      std::max<int>(config_.expected_networks,
                    static_cast<int>(slots_.size()));
  if (networks <= 1) return desired_delta;
  // Plans repeat every grid spacing; compress the step when the desired
  // misalignment cannot host everyone.
  const int capacity =
      std::max(1, static_cast<int>(kChannelSpacing / desired_delta));
  if (networks <= capacity) return desired_delta;
  return kChannelSpacing / static_cast<double>(networks);
}

double MasterNode::effective_overlap() const {
  const Hz step = plan_offset_step();
  return std::max(0.0, 1.0 - step / kLoRaBandwidth125k);
}

RegisterAckMsg MasterNode::handle_register(const RegisterMsg& msg) {
  if (!slots_.contains(msg.operator_id)) {
    const int slot = static_cast<int>(slots_.size());
    slots_[msg.operator_id] = slot;
    ++epoch_;
  }
  return RegisterAckMsg{msg.operator_id, epoch_};
}

std::optional<Hz> MasterNode::offset_of(NetworkId operator_id) const {
  const auto it = slots_.find(operator_id);
  if (it == slots_.end()) return std::nullopt;
  return config_.base_offset +
         plan_offset_step() * static_cast<double>(it->second);
}

MasterMessage MasterNode::handle_plan_request(const PlanRequestMsg& msg) {
  const auto offset = offset_of(msg.operator_id);
  if (!offset) {
    return ErrorMsg{1, "operator not registered"};
  }
  PlanAssignMsg assign;
  assign.operator_id = msg.operator_id;
  assign.master_epoch = epoch_;
  assign.frequency_offset = *offset;
  assign.overlap_ratio = effective_overlap();
  // Channels: the requested count of grid channels, shifted by the
  // operator's offset, kept inside the spectrum.
  const Spectrum& spec = config_.spectrum;
  const int want = std::max<int>(1, msg.requested_channels);
  for (int k = 0; k < spec.grid_size() && static_cast<int>(
                                              assign.channels.size()) < want;
       ++k) {
    Channel ch = spec.grid_channel(k);
    ch.center += *offset;
    if (spec.contains(ch)) assign.channels.push_back(ch);
  }
  return assign;
}

MasterService::MasterService(MasterNode& master, MessageBus& bus)
    : master_(master), bus_(bus) {
  bus_.attach(endpoint(), [this](const EndpointId& from,
                                 std::vector<std::uint8_t> payload) {
    on_message(from, std::move(payload));
  });
}

void MasterService::on_message(const EndpointId& from,
                               std::vector<std::uint8_t> payload) {
  const auto msg = decode_message(payload);
  MasterMessage reply = ErrorMsg{2, "malformed message"};
  if (msg) {
    if (const auto* reg = std::get_if<RegisterMsg>(&*msg)) {
      // Duplicate registrations (an operator's retry whose ack was lost)
      // are answered idempotently with the current epoch.
      if (master_.offset_of(reg->operator_id).has_value()) {
        ++duplicate_registrations_;
      }
      reply = master_.handle_register(*reg);
    } else if (const auto* req = std::get_if<PlanRequestMsg>(&*msg)) {
      reply = master_.handle_plan_request(*req);
    } else {
      reply = ErrorMsg{3, "unexpected message type"};
    }
  }
  ++requests_served_;
  bus_.send(endpoint(), from, encode_message(reply), /*wan=*/true);
}

// ---- operator client --------------------------------------------------------

OperatorClient::OperatorClient(NetworkId operator_id,
                               std::string operator_name, MessageBus& bus,
                               RetryPolicy policy, NetworkServer* server)
    : id_(operator_id),
      name_(std::move(operator_name)),
      bus_(bus),
      policy_(policy),
      server_(server) {
  bus_.attach(endpoint(), [this](const EndpointId& from,
                                 std::vector<std::uint8_t> payload) {
    on_message(from, std::move(payload));
  });
}

OperatorClient::~OperatorClient() {
  bus_.detach(endpoint());
  ++xact_;  // neutralize any timer still queued on the engine
}

EndpointId OperatorClient::endpoint() const {
  return "operator-" + std::to_string(id_);
}

void OperatorClient::sync(const Spectrum& spectrum,
                          std::uint16_t requested_channels) {
  spectrum_ = spectrum;
  requested_channels_ = requested_channels;
  state_ = registered_ ? State::kRequesting : State::kRegistering;
  attempt_ = 0;
  ++xact_;
  transmit();
}

void OperatorClient::refresh() {
  if (state_ != State::kIdle) return;  // exchange already in flight
  state_ = registered_ ? State::kRequesting : State::kRegistering;
  attempt_ = 0;
  ++xact_;
  transmit();
}

void OperatorClient::transmit() {
  ++stats_.sends;
  MasterMessage msg;
  if (state_ == State::kRegistering) {
    msg = RegisterMsg{id_, name_};
  } else {
    msg = PlanRequestMsg{id_, spectrum_.base, spectrum_.width,
                         requested_channels_};
  }
  bus_.send(endpoint(), MasterService::endpoint(), encode_message(msg),
            /*wan=*/true);
  arm_timeout();
}

void OperatorClient::arm_timeout() {
  const Seconds timeout = policy_.timeout_for_attempt(attempt_);
  bus_.engine().schedule_in(timeout, [this, xact = xact_] {
    if (xact != xact_ || state_ == State::kIdle) return;  // superseded
    ++stats_.timeouts;
    ++attempt_;
    if (policy_.max_attempts > 0 && attempt_ >= policy_.max_attempts) {
      // Give up; the last-known-good plan (if any) stays in force.
      ++stats_.gave_up;
      state_ = State::kIdle;
      ++xact_;
      return;
    }
    ++stats_.retries;
    transmit();
  });
}

void OperatorClient::accept_plan(const PlanAssignMsg& assign) {
  plan_ = assign;
  if (server_ != nullptr) {
    (void)server_->adopt_plan(assign.master_epoch, assign.frequency_offset,
                              assign.channels);
  }
}

void OperatorClient::on_message(const EndpointId& /*from*/,
                                std::vector<std::uint8_t> payload) {
  const auto msg = decode_message(payload);
  if (!msg) {
    // Corrupted/truncated reply: ignore; the timeout path retries.
    ++stats_.malformed_ignored;
    return;
  }
  if (const auto* ack = std::get_if<RegisterAckMsg>(&*msg)) {
    if (ack->operator_id != id_) return;
    if (state_ != State::kRegistering) {
      // A duplicated or late ack for an exchange we already completed.
      ++stats_.duplicates_ignored;
      return;
    }
    registered_ = true;
    state_ = State::kRequesting;
    attempt_ = 0;
    ++xact_;
    transmit();
  } else if (const auto* assign = std::get_if<PlanAssignMsg>(&*msg)) {
    if (assign->operator_id != id_) return;
    if (plan_ && assign->master_epoch < plan_->master_epoch) {
      // Stale epoch: a delayed/duplicated assignment computed before the
      // plan we already hold. Never roll back.
      ++stats_.stale_plans_ignored;
      return;
    }
    if (state_ != State::kRequesting) {
      // Duplicate of an assignment we already accepted. Same or newer
      // epoch content is idempotent to re-apply; count and keep the newer.
      ++stats_.duplicates_ignored;
      if (!plan_ || assign->master_epoch > plan_->master_epoch) {
        accept_plan(*assign);
      }
      return;
    }
    accept_plan(*assign);
    state_ = State::kIdle;
    ++xact_;
  } else if (const auto* error = std::get_if<ErrorMsg>(&*msg)) {
    ++stats_.errors_received;
    if (state_ == State::kRequesting && error->code == 1) {
      // "operator not registered": the Master lost us (or a plan request
      // raced ahead of registration). Fall back to registering.
      registered_ = false;
      state_ = State::kRegistering;
      attempt_ = 0;
      ++xact_;
      transmit();
    }
  }
}

}  // namespace alphawan
