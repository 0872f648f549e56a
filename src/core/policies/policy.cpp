#include "core/policies/policy.hpp"

namespace dvbp {

void Policy::on_open(Time, BinId, const Item&) {}
void Policy::on_pack(Time, BinId, const Item&) {}
void Policy::on_depart(Time, BinId, const Item&, bool) {}
void Policy::reset() {}
void Policy::save_state(serial::Writer&) const {}
void Policy::restore_state(serial::Reader&) {}

}  // namespace dvbp
