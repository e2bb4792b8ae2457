// GPS localization scheme.
//
// Reports the phone GPS fix converted into the local map frame (paper
// Sec. IV-B: "we convert the result of GPS to the map coordinate by the
// public digital map information"). Unavailable whenever the receiver has
// no valid fix or the energy controller disabled the sensor.
#pragma once

#include "geo/latlon.h"
#include "schemes/scheme.h"

namespace uniloc::schemes {

class GpsScheme final : public LocalizationScheme {
 public:
  explicit GpsScheme(geo::LocalFrame frame);

  std::string name() const override { return "GPS"; }
  SchemeFamily family() const override { return SchemeFamily::kGps; }
  void reset(const StartCondition& start) override;
  void update_into(const sim::SensorFrame& frame, SchemeOutput& out) override;

 private:
  geo::LocalFrame frame_;
};

}  // namespace uniloc::schemes
