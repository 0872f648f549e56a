#include "core/policies/best_fit.hpp"

#include <stdexcept>


namespace dvbp {

std::string_view load_measure_name(LoadMeasure m) noexcept {
  switch (m) {
    case LoadMeasure::kLinf:
      return "Linf";
    case LoadMeasure::kL1:
      return "L1";
    case LoadMeasure::kL2:
      return "L2";
  }
  return "?";
}

double measure_load(const RVec& load, LoadMeasure m) {
  switch (m) {
    case LoadMeasure::kLinf:
      return load.linf();
    case LoadMeasure::kL1:
      return load.l1();
    case LoadMeasure::kL2:
      return load.lp(2.0);
  }
  throw std::invalid_argument("measure_load: unknown measure");
}

}  // namespace dvbp
